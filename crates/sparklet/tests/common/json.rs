//! A JSON well-formedness check for tests: `JobReport::to_json` is
//! hand-written, so its tests (and those of every report file written from
//! it) validate the output against the grammar rather than a brace count.
//! Shared by path (`#[path]` module) with the crates that write reports.

/// Recursive-descent well-formedness check over the RFC 8259 grammar (no
/// value is built): the offset just past the value at `i`, if it is one.
fn json_value(b: &[u8], i: usize) -> Option<usize> {
    let ws = |i: usize| i + b[i..].iter().take_while(|c| b" \n\r\t".contains(c)).count();
    let digits = |i: usize| {
        let n = b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
        (n > 0).then_some(i + n)
    };
    let i = ws(i);
    match *b.get(i)? {
        open @ (b'{' | b'[') => {
            let close = open + 2; // ASCII: '{' + 2 is '}', '[' + 2 is ']'
            let mut i = ws(i + 1);
            if b.get(i) == Some(&close) {
                return Some(i + 1);
            }
            loop {
                if open == b'{' {
                    // A key is a value that turns out to be a string.
                    i = ws(json_value(b, i).filter(|_| b[ws(i)] == b'"')?);
                    i = (b.get(i) == Some(&b':')).then_some(i + 1)?;
                }
                i = ws(json_value(b, i)?);
                match *b.get(i)? {
                    b',' => i += 1,
                    c if c == close => return Some(i + 1),
                    _ => return None,
                }
            }
        }
        b'"' => {
            let mut i = i + 1;
            loop {
                i += match *b.get(i)? {
                    b'"' => return Some(i + 1),
                    b'\\' if b.get(i + 1) == Some(&b'u') => {
                        let hex = b.get(i + 2..i + 6)?.iter().all(u8::is_ascii_hexdigit);
                        hex.then_some(6)?
                    }
                    b'\\' => b"\"\\/bfnrt".contains(b.get(i + 1)?).then_some(2)?,
                    c => (c >= 0x20).then_some(1)?,
                };
            }
        }
        b't' => b[i..].starts_with(b"true").then_some(i + 4),
        b'f' => b[i..].starts_with(b"false").then_some(i + 5),
        b'n' => b[i..].starts_with(b"null").then_some(i + 4),
        c @ (b'-' | b'0'..=b'9') => {
            let mut i = i + usize::from(c == b'-');
            i = if b.get(i) == Some(&b'0') {
                i + 1
            } else {
                digits(i)?
            };
            if b.get(i) == Some(&b'.') {
                i = digits(i + 1)?;
            }
            if matches!(b.get(i), Some(b'e' | b'E')) {
                i = digits(i + 1 + usize::from(matches!(b.get(i + 1), Some(b'+' | b'-'))))?;
            }
            Some(i)
        }
        _ => None,
    }
}

/// Is `text` exactly one well-formed JSON value?
pub(crate) fn is_json(text: &str) -> bool {
    let b = text.as_bytes();
    json_value(b, 0).is_some_and(|end| b[end..].iter().all(|c| b" \n\r\t".contains(c)))
}
