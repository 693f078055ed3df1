//! Lowercase hex encoding shared by the digest modules.

const NIBBLES: &[u8; 16] = b"0123456789abcdef";

/// Encodes `bytes` as lowercase hex into one preallocated `String`.
pub(crate) fn hex_lower(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &byte in bytes {
        out.push(NIBBLES[(byte >> 4) as usize] as char);
        out.push(NIBBLES[(byte & 0x0f) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_every_byte_value_like_the_formatter() {
        let all: Vec<u8> = (0..=255).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex_lower(&all), expected);
        assert_eq!(hex_lower(&[]), "");
    }
}
