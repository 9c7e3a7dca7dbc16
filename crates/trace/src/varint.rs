//! LEB128 variable-length integers with zigzag signed mapping.
//!
//! Timestamps in a trace are stored as zigzag-encoded deltas from the
//! previous timed event, so a steady command stream costs one or two
//! bytes per timestamp regardless of absolute simulation time.

/// Why a varint failed to decode; callers map this into a contextual
/// [`TraceError`](crate::TraceError).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarintFault {
    /// Input ran out mid-varint.
    Truncated,
    /// More than 10 continuation bytes — cannot fit a `u64`.
    Overflow,
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn encode_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped then LEB128-encoded.
pub fn encode_i64(out: &mut Vec<u8>, v: i64) {
    encode_u64(out, zigzag(v));
}

/// Maps a signed value to an unsigned one so small magnitudes stay small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Decodes one LEB128 varint starting at `*pos`, advancing `*pos` past it.
///
/// A one-byte value (most deltas, banks and rows) returns at once, and
/// with ten bytes in hand a longer varint decodes under a single bounds
/// check; only a varint starting within ten bytes of the buffer's end
/// goes byte by byte. Every path leaves `*pos` where the byte-at-a-time
/// reading stops: past the tenth byte on
/// [`Overflow`](VarintFault::Overflow), at the end of the buffer on
/// [`Truncated`](VarintFault::Truncated). Inlined into every event field
/// read, so the event loops carry no call per varint.
#[inline(always)]
pub(crate) fn decode_u64(buf: &[u8], pos: &mut usize) -> Result<u64, VarintFault> {
    let start = *pos;
    if let Some(&byte) = buf.get(start) {
        if byte & 0x80 == 0 {
            *pos = start + 1;
            return Ok(u64::from(byte));
        }
    }
    let Some(bytes) = buf.get(start..).and_then(<[u8]>::first_chunk::<10>) else {
        return decode_u64_bytewise(buf, pos);
    };
    let mut v: u64 = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            // The 10th byte may only carry the single remaining bit.
            if i == 9 && byte > 1 {
                break;
            }
            *pos = start + i + 1;
            return Ok(v);
        }
    }
    *pos = start + 10;
    Err(VarintFault::Overflow)
}

/// The byte-at-a-time decode [`decode_u64`] falls back on near the end
/// of a buffer, where every byte needs its own bounds check.
fn decode_u64_bytewise(buf: &[u8], pos: &mut usize) -> Result<u64, VarintFault> {
    let mut v: u64 = 0;
    for shift_step in 0..10u32 {
        let byte = *buf.get(*pos).ok_or(VarintFault::Truncated)?;
        *pos += 1;
        let payload = (byte & 0x7f) as u64;
        let shift = shift_step * 7;
        // The 10th byte may only carry the single remaining bit of a u64.
        if shift == 63 && payload > 1 {
            return Err(VarintFault::Overflow);
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(VarintFault::Overflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            encode_u64(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(decode_u64(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn i64_round_trips_via_zigzag() {
        for v in [0i64, 1, -1, 63, -64, 64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            encode_i64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(decode_u64(&buf, &mut pos).map(unzigzag), Ok(v));
        }
        // Small deltas stay in one byte.
        let mut buf = Vec::new();
        encode_i64(&mut buf, -2);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_and_overlong_varints_are_errors() {
        let mut pos = 0;
        assert_eq!(decode_u64(&[], &mut pos), Err(VarintFault::Truncated));
        let mut pos = 0;
        assert_eq!(
            decode_u64(&[0x80, 0x80], &mut pos),
            Err(VarintFault::Truncated)
        );
        // 10 continuation bytes, all with the high bit set.
        let mut pos = 0;
        assert_eq!(
            decode_u64(&[0x80; 11], &mut pos),
            Err(VarintFault::Overflow)
        );
        // A 10th byte carrying more than the last u64 bit.
        let mut bytes = vec![0x80u8; 9];
        bytes.push(0x02);
        let mut pos = 0;
        assert_eq!(decode_u64(&bytes, &mut pos), Err(VarintFault::Overflow));
    }

    /// The reference decoder: one byte and one bounds check at a time.
    /// Every path of [`decode_u64`] must agree with it on the result and
    /// on the end position.
    fn reference_decode(buf: &[u8], pos: &mut usize) -> Result<u64, VarintFault> {
        let mut v: u64 = 0;
        for shift_step in 0..10u32 {
            let byte = *buf.get(*pos).ok_or(VarintFault::Truncated)?;
            *pos += 1;
            let payload = (byte & 0x7f) as u64;
            let shift = shift_step * 7;
            if shift == 63 && payload > 1 {
                return Err(VarintFault::Overflow);
            }
            v |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(VarintFault::Overflow)
    }

    /// Byte strings that reach every branch of the decoder: each 7-bit
    /// boundary value and its neighbours, continuation runs of every
    /// length ended by each interesting last byte (10th-byte payloads 0,
    /// 1 and 2 among them), plus random bytes, each with every prefix so
    /// truncation is covered too.
    fn edge_buffers() -> Vec<Vec<u8>> {
        let mut whole: Vec<Vec<u8>> = Vec::new();
        for bits in 0..64u32 {
            let edge = 1u64 << bits;
            for v in [edge - 1, edge, edge + 1, u64::MAX >> bits] {
                let mut buf = Vec::new();
                encode_u64(&mut buf, v);
                whole.push(buf);
            }
        }
        for run in 0..=11usize {
            for last in [0x00u8, 0x01, 0x02, 0x03, 0x7f, 0x80, 0x81, 0x82, 0xff] {
                let mut buf = vec![0x80u8; run];
                buf.push(last);
                whole.push(buf.clone());
                buf.fill(0xff);
                buf[run] = last;
                whole.push(buf);
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..=11usize {
            for _ in 0..64 {
                let buf = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        // Mostly continuation bytes, so long runs occur.
                        (state as u8) | if state & 0x300 != 0 { 0x80 } else { 0 }
                    })
                    .collect();
                whole.push(buf);
            }
        }
        let mut out = Vec::new();
        for buf in whole {
            for len in 0..=buf.len() {
                out.push(buf[..len].to_vec());
            }
        }
        out
    }

    #[test]
    fn fast_paths_agree_with_the_bytewise_reference_everywhere() {
        let mut checked = 0usize;
        for buf in edge_buffers() {
            assert!(buf.len() <= 12);
            // Start at every offset, and once past the end.
            for start in 0..=buf.len() + 1 {
                let (mut got_pos, mut want_pos) = (start, start);
                let got = decode_u64(&buf, &mut got_pos);
                let want = reference_decode(&buf, &mut want_pos);
                assert_eq!(
                    (got, got_pos),
                    (want, want_pos),
                    "bytes {buf:02x?} from {start}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 45_960, "the whole case set ran");
    }
}
