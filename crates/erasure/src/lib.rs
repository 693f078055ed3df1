//! # scalia-erasure
//!
//! A from-scratch `(m, n)` Reed–Solomon erasure-coding substrate.
//!
//! The paper (§II-A1) relies on erasure coding to split a data object into
//! `n` chunks such that **any** `m ≤ n` of them reconstruct the original.
//! This crate implements that substrate completely:
//!
//! * [`gf256`] — arithmetic over GF(2⁸) with the reducing polynomial
//!   `x⁸ + x⁴ + x³ + x² + 1` (0x11d), using log/exp tables.
//! * [`matrix`] — dense matrices over GF(256) with multiplication and
//!   Gauss–Jordan inversion.
//! * [`rs`] — a systematic Reed–Solomon coder built from a Vandermonde
//!   matrix normalised so the first `m` rows are the identity; any `m` rows
//!   of the resulting encode matrix are invertible, which is exactly the
//!   "any m-subset of the n chunks contains a complete copy" property.
//! * [`codec`] — the object-level API used by the Scalia engine: cut a
//!   staged stripe into [`Chunk`]s (the data chunks are windows of the
//!   staging buffer) and reassemble it from any `m` of them onto the
//!   caller's buffer, hashing the bytes in the same copy. Corruption is
//!   caught one layer up, by the per-stripe content checksum the engine
//!   stores with the metadata.

// `deny` rather than `forbid`: the one sanctioned exception is the scoped
// `allow(unsafe_code)` on `gf256::simd`, the runtime-feature-gated SIMD
// kernels (every other module stays unsafe-free, and the lint still fails
// the build on any new unscoped use).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod gf256;
pub mod matrix;
pub mod rs;

pub use codec::{
    decode_object, decode_object_append, decode_object_into, encode_object, encode_staged,
    staged_len, Chunk, EncodedObject,
};
pub use rs::ReedSolomon;

/// Commonly used items.
pub mod prelude {
    pub use crate::codec::{
        decode_object, decode_object_append, decode_object_into, encode_object, encode_staged,
        staged_len, Chunk, EncodedObject,
    };
    pub use crate::rs::ReedSolomon;
}
