//! The typed wire codec for [`Request`] lines.
//!
//! Both ends of the query path used to go text → `serde::Value` tree →
//! struct. This module encodes and decodes a [`Request`] in one pass,
//! with no intermediate tree: [`decode_request`] parses `inputs`
//! straight into rows, and the encoder writes floats with an in-repo
//! shortest-round-trip formatter (Ryū: Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018).
//!
//! A query row travels in one of two forms, and rows of both forms may
//! share a request:
//!
//! * **Decimal**: a JSON array of numbers, `[0.0,0.5,...]`.
//! * **Bits**: one JSON string holding the base64 (RFC 4648, standard
//!   alphabet, padded) of the row's f64s as little-endian bytes, ~10.7
//!   characters per element and exact by construction. It is the only
//!   form that carries NaN and ±inf, which the server then refuses as
//!   it refuses `1e999`. The decoder accepts only the canonical text: a
//!   non-zero whole number of f64s, `=` only as the final padding, zero
//!   padding bits, and no escapes. Anything else is a [`WireError`].
//!
//! Decimal text costs ~130 ns per non-zero element to write and read
//! back, against ~17 ns per element for bits. [`crate::Client::query`]
//! therefore writes a row as bits when at least one element in four is
//! other than `+0.0`; a one-hot probe row stays decimal, where its bare
//! `0.0`s are cheap.
//!
//! The vendored `serde_json` shim stays the reference for decimal lines,
//! and the codec is equivalent to it by contract (`tests/wire_codec.rs`
//! checks it differentially; `tests/bit_rows.rs` checks the bit form):
//!
//! * [`encode_request`] writes exactly the bytes of
//!   `serde_json::to_string(&request)`: field declaration order, `null`
//!   for `None`, the shim's string escaping, `{:?}` float text, and
//!   `null` for non-finite floats. It never writes bits.
//! * [`decode_request`] accepts and rejects decimal lines exactly as
//!   `serde_json::from_str::<Request>` does, with equal values; a string
//!   row is the bit form. That includes the shim's quirks: integer
//!   tokens convert through `u64`/`i64` and then `as f64` (so `-0`
//!   decodes to `+0.0`, and a `seed` of `-0` is `0`); integers
//!   overflowing 64 bits become floats (so such a `seed` is rejected);
//!   the first of duplicate keys wins; unknown keys are skipped but must
//!   hold valid JSON; trailing non-whitespace is rejected.
//!
//! Number tokens are read by `str::parse`, as the shim reads them, with
//! one shortcut: in a row, a bare `0.0` directly before `,` or `]`,
//! nearly every element of a one-hot probe row, is `+0.0` (the value
//! `str::parse` gives it) without being scanned as a token. The server
//! times this layer as `serve.decode_ns` (`xbar serve stats`).
//!
//! One deliberate difference: values skipped under unknown keys are
//! walked iteratively, so deep nesting costs no stack.
//!
//! [`crate::protocol::Response`] stays on the shim in both directions.

use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

use crate::protocol::Request;

/// A request line that does not decode to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    message: String,
    at: usize,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// The fields of a [`Request`], borrowed: what the encoder writes. Lets
/// [`crate::Client::query`] encode straight from the caller's inputs.
pub(crate) struct RequestRef<'a> {
    op: &'a str,
    session: Option<&'a str>,
    victim: Option<&'a str>,
    seed: Option<u64>,
    budget: Option<u64>,
    inputs: Option<&'a [Vec<f64>]>,
    format: Option<&'a str>,
    /// Whether dense rows may go in the bit form (see [`is_dense`]).
    bit_rows: bool,
}

impl<'a> RequestRef<'a> {
    /// Borrows every field of `request`.
    pub(crate) fn of(request: &'a Request) -> Self {
        RequestRef {
            op: &request.op,
            session: request.session.as_deref(),
            victim: request.victim.as_deref(),
            seed: request.seed,
            budget: request.budget,
            inputs: request.inputs.as_deref(),
            format: request.format.as_deref(),
            bit_rows: false,
        }
    }

    /// A `query` request for `session` carrying `inputs`, its dense
    /// rows in the bit form.
    pub(crate) fn query(session: &'a str, inputs: &'a [Vec<f64>]) -> Self {
        RequestRef {
            op: "query",
            session: Some(session),
            victim: None,
            seed: None,
            budget: None,
            inputs: Some(inputs),
            format: None,
            bit_rows: true,
        }
    }
}

/// A [`crate::Client`] query row goes in the bit form when at least one
/// element in `BIT_ROW_ONE_IN` has bits other than `+0.0`, and as
/// decimal text otherwise. Measured per element, encode plus decode: a
/// decimal `+0.0` costs ~7 ns (the encoder's and the decoder's
/// shortcuts), a bit-form element ~17 ns whatever its value, and a
/// decimal non-zero ~130 ns (Ryū, then `str::parse`). The break-even is
/// about one non-zero in 12, so one-hot probe rows (one in 784) stay
/// decimal and digit rows (~63% non-zero) go as bits.
const BIT_ROW_ONE_IN: usize = 4;

/// Whether `row` is dense enough for the bit form: non-empty, with at
/// least one element in [`BIT_ROW_ONE_IN`] other than `+0.0`.
fn is_dense(row: &[f64]) -> bool {
    let nonzero = row.iter().filter(|v| v.to_bits() != 0).count();
    !row.is_empty() && nonzero * BIT_ROW_ONE_IN >= row.len()
}

/// Appends the wire text of `request` to `out`: the bytes of
/// `serde_json::to_string(request)`, without a line terminator.
pub fn encode_request(request: &Request, out: &mut String) {
    let mut bytes = std::mem::take(out).into_bytes();
    write_request(&RequestRef::of(request), &mut bytes);
    *out = String::from_utf8(bytes).expect("the encoder writes UTF-8");
}

/// Appends the wire text of `request` to `out`: [`encode_request`]'s
/// bytes, except that a [`RequestRef::query`] writes its dense rows in
/// the bit form.
pub(crate) fn write_request(request: &RequestRef<'_>, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"op\":");
    write_str(out, request.op);
    out.extend_from_slice(b",\"session\":");
    write_opt_str(out, request.session);
    out.extend_from_slice(b",\"victim\":");
    write_opt_str(out, request.victim);
    out.extend_from_slice(b",\"seed\":");
    write_opt_u64(out, request.seed);
    out.extend_from_slice(b",\"budget\":");
    write_opt_u64(out, request.budget);
    out.extend_from_slice(b",\"inputs\":");
    match request.inputs {
        None => out.extend_from_slice(b"null"),
        Some(rows) => {
            let tables = Pow5Tables::get();
            out.push(b'[');
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                if request.bit_rows && is_dense(row) {
                    write_bit_row(out, row);
                    continue;
                }
                out.push(b'[');
                for (j, &v) in row.iter().enumerate() {
                    if j > 0 {
                        out.push(b',');
                    }
                    write_f64(out, v, tables);
                }
                out.push(b']');
            }
            out.push(b']');
        }
    }
    out.extend_from_slice(b",\"format\":");
    write_opt_str(out, request.format);
    out.push(b'}');
}

fn write_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => write_str(out, s),
        None => out.extend_from_slice(b"null"),
    }
}

/// Writes `s` quoted, escaped as the shim does: `"` and `\`, the short
/// escapes `\n \r \t \b \f`, `\u00xx` for the other control
/// characters, and everything else verbatim.
fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0x00..=0x1f => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(&bytes[run..i]);
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
                run = i + 1;
                continue;
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

fn write_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            let mut buf = [0u8; 20];
            let start = write_digits(v, &mut buf);
            out.extend_from_slice(&buf[start..]);
        }
        None => out.extend_from_slice(b"null"),
    }
}

/// Writes the decimal digits of `v` at the end of `buf` and returns
/// where they start.
fn write_digits(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as u8;
        v /= 100;
        i -= 2;
        buf[i] = b'0' + pair / 10;
        buf[i + 1] = b'0' + pair % 10;
    }
    if v >= 10 {
        i -= 2;
        buf[i] = b'0' + (v / 10) as u8;
        buf[i + 1] = b'0' + (v % 10) as u8;
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

/// Writes `v` as `format!("{v:?}")` does, or `null` when it is not
/// finite: the shortest digits that read back as `v`, in decimal
/// layout for `1e-4 <= |v| < 1e16` (and zero) and `d.ddde±N` layout
/// otherwise.
fn write_f64(out: &mut Vec<u8>, v: f64, tables: &Pow5Tables) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let bits = v.to_bits();
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.extend_from_slice(b"0.0");
        return;
    }
    let (mantissa, exponent) = shortest(ieee_mantissa, ieee_exponent, tables);
    let mut buf = [0u8; 20];
    let start = write_digits(mantissa, &mut buf);
    let digits = &buf[start..];
    let len = digits.len() as i32;
    // Digits before the decimal point: `v = 0.d1d2...dn × 10^point`.
    let point = len + exponent;
    let abs = v.abs();
    if !(1e-4..1e16).contains(&abs) {
        out.push(digits[0]);
        if digits.len() > 1 {
            out.push(b'.');
            out.extend_from_slice(&digits[1..]);
        }
        out.push(b'e');
        let sci = point - 1;
        if sci < 0 {
            out.push(b'-');
        }
        let start = write_digits(u64::from(sci.unsigned_abs()), &mut buf);
        out.extend_from_slice(&buf[start..]);
    } else if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    } else if point < len {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + (point - len) as usize, b'0');
        out.extend_from_slice(b".0");
    }
}

// --- The bit form: base64 of little-endian f64 bytes ---

/// The standard base64 alphabet (RFC 4648 §4).
const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Writes `row` as one JSON string: the padded base64 of its elements'
/// little-endian bytes, 32 characters per three elements.
fn write_bit_row(out: &mut Vec<u8>, row: &[f64]) {
    out.reserve(row.len().div_ceil(3) * 32 + 2);
    out.push(b'"');
    for chunk in row.chunks(3) {
        let mut bytes = [0u8; 24];
        for (dst, v) in bytes.as_chunks_mut::<8>().0.iter_mut().zip(chunk) {
            *dst = v.to_le_bytes();
        }
        // Three whole elements fill all 32 characters; one or two, the
        // last block, leave a 2- or 1-byte group padded with `=`.
        let len = 8 * chunk.len();
        let mut text = [0u8; 32];
        for (dst, group) in text
            .as_chunks_mut::<4>()
            .0
            .iter_mut()
            .zip(bytes.as_chunks::<3>().0)
        {
            let n = u32::from(group[0]) << 16 | u32::from(group[1]) << 8 | u32::from(group[2]);
            *dst = [18, 12, 6, 0].map(|shift| BASE64[(n >> shift & 63) as usize]);
        }
        let chars = len.div_ceil(3) * 4;
        text[chars - (3 - len % 3) % 3..chars].fill(b'=');
        out.extend_from_slice(&text[..chars]);
    }
    out.push(b'"');
}

// --- Ryū: shortest round-trip digits ---

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each `2^k / 5^q` (inverse) and `5^i` table entry.
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;
/// `q` reaches `log10Pow2(969) - 1 = 290` for the largest binary
/// exponent, and `i = -e2 - q` reaches 325 for the smallest.
const POW5_INV_TABLE_LEN: usize = 292;
const POW5_TABLE_LEN: usize = 326;

/// The 128-bit power-of-5 tables of Ryū's `d2d`, computed once at
/// first use from exact multi-limb arithmetic.
struct Pow5Tables {
    /// `inv[q] = floor(2^(pow5bits(q) - 1 + 125) / 5^q) + 1`.
    inv: Vec<u128>,
    /// `pow[i]` = the top 125 bits of `5^i` (left-aligned when `5^i`
    /// is shorter).
    pow: Vec<u128>,
}

impl Pow5Tables {
    fn get() -> &'static Pow5Tables {
        static TABLES: OnceLock<Pow5Tables> = OnceLock::new();
        TABLES.get_or_init(Pow5Tables::compute)
    }

    fn compute() -> Pow5Tables {
        let mut inv = Vec::with_capacity(POW5_INV_TABLE_LEN);
        let mut pow = Vec::with_capacity(POW5_TABLE_LEN);
        let mut five = Wide::one();
        for i in 0..POW5_TABLE_LEN {
            let bits = five.bit_len();
            debug_assert_eq!(bits as i32, pow5bits(i as i32));
            pow.push(if bits <= POW5_BITCOUNT as u32 {
                five.low_u128() << (POW5_BITCOUNT as u32 - bits)
            } else {
                five.bits_from(bits - POW5_BITCOUNT as u32)
            });
            if i < POW5_INV_TABLE_LEN {
                inv.push(five.inverse_pow2(bits - 1 + POW5_INV_BITCOUNT as u32) + 1);
            }
            five.mul_small(5);
        }
        Pow5Tables { inv, pow }
    }
}

/// A little-endian multi-limb unsigned integer wide enough for `5^326`
/// (757 bits) and the remainders of dividing by it.
struct Wide([u64; 13]);

impl Wide {
    fn one() -> Wide {
        let mut w = Wide([0; 13]);
        w.0[0] = 1;
        w
    }

    fn bit_len(&self) -> u32 {
        self.0
            .iter()
            .rposition(|&limb| limb != 0)
            .map_or(0, |i| 64 * i as u32 + 64 - self.0[i].leading_zeros())
    }

    fn low_u128(&self) -> u128 {
        u128::from(self.0[0]) | (u128::from(self.0[1]) << 64)
    }

    /// The 128 bits starting at bit `shift`.
    fn bits_from(&self, shift: u32) -> u128 {
        let (limb, bit) = ((shift / 64) as usize, shift % 64);
        let word = |i: usize| u128::from(self.0.get(i).copied().unwrap_or(0));
        let low = word(limb) | (word(limb + 1) << 64);
        if bit == 0 {
            low
        } else {
            (low >> bit) | (word(limb + 2) << (128 - bit))
        }
    }

    fn mul_small(&mut self, factor: u64) {
        let mut carry = 0u128;
        for limb in &mut self.0 {
            let product = u128::from(*limb) * u128::from(factor) + carry;
            *limb = product as u64;
            carry = product >> 64;
        }
        assert_eq!(carry, 0, "power-of-5 table overflowed its limbs");
    }

    fn shl1(&mut self) {
        let mut carry = 0;
        for limb in &mut self.0 {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
    }

    fn sub_assign(&mut self, other: &Wide) {
        let mut borrow = false;
        for (limb, &o) in self.0.iter_mut().zip(&other.0) {
            let (d, b1) = limb.overflowing_sub(o);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *limb = d;
            borrow = b1 || b2;
        }
    }

    fn ge(&self, other: &Wide) -> bool {
        self.0.iter().rev().cmp(other.0.iter().rev()) != std::cmp::Ordering::Less
    }

    /// `floor(2^k / self)` by restoring binary long division, for a
    /// `self` of `b` bits with `b - 1 <= k <= b + 126` (so the quotient
    /// fits in 128 bits).
    fn inverse_pow2(&self, k: u32) -> u128 {
        let bits = self.bit_len();
        // The numerator's top `bits` bits are 2^(bits - 1); each of the
        // remaining `k + 1 - bits` bits is a zero shifted in.
        let mut rem = Wide([0; 13]);
        let top = bits - 1;
        rem.0[(top / 64) as usize] = 1 << (top % 64);
        let mut quotient = 0u128;
        if rem.ge(self) {
            rem.sub_assign(self);
            quotient = 1;
        }
        for _ in 0..k + 1 - bits {
            rem.shl1();
            quotient <<= 1;
            if rem.ge(self) {
                rem.sub_assign(self);
                quotient |= 1;
            }
        }
        quotient
    }
}

/// `ceil(log2(5^e))` for `e > 0` (and 1 for `e = 0`): the bit length
/// of `5^e`.
fn pow5bits(e: i32) -> i32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `floor(log10(2^e))`.
fn log10_pow2(e: i32) -> u32 {
    ((e * 78_913) >> 18) as u32
}

/// `floor(log10(5^e))`.
fn log10_pow5(e: i32) -> u32 {
    ((e * 732_923) >> 20) as u32
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `(m * mul) >> j` for a 128-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Ryū's `d2d`: the shortest decimal `mantissa × 10^exponent` that
/// reads back as the positive, nonzero double with these IEEE fields,
/// the closest such decimal when several are equally short, and — the
/// one departure from the paper, to match `{:?}` — the larger of two
/// exactly tied candidates rather than the even one.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32, tables: &Pow5Tables) -> (u64, i32) {
    // Step 1: the value is m2 × 2^e2; two extra bits for the bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 % 2 == 0;

    // Step 2: the interval of decimals that read back as this value,
    // (mm, mp) around mv, scaled by 4. The lower gap halves at a
    // power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Step 3: move to a decimal exponent with 128-bit arithmetic.
    // Ryū also tracks whether vr is exact in decimal, for its
    // round-half-even rule; `{:?}` rounds an exact tie up, which is
    // what the plain `>= 5` test does, so only the lower bound's
    // exactness is tracked here.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = tables.inv[q as usize];
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mp, mul, i);
        vm = mul_shift(mm, mul, i);
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = tables.pow[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if q <= 1 {
            // mm = mv - 1 - mm_shift has a trailing zero bit iff
            // mm_shift is 1; mp = mv + 2 always has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Step 4: drop digits while the interval still holds two
    // candidates, then round vr (up when `outside` the interval).
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // The rare case: the lower bound is exact in decimal and
        // accepted, so digits may be dropped while it stays exact.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let outside = vr == vm && !vm_is_trailing_zeros;
        vr + u64::from(outside || last_removed_digit >= 5)
    } else {
        // The common case, two digits at a time first.
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decodes one request line (without its terminator).
///
/// # Errors
///
/// Returns [`WireError`] exactly when `serde_json::from_str::<Request>`
/// fails on `line`.
pub fn decode_request(line: &str) -> Result<Request, WireError> {
    let mut decoder = Decoder {
        text: line,
        bytes: line.as_bytes(),
        pos: 0,
    };
    let request = decoder.request()?;
    decoder.skip_ws();
    if decoder.pos != decoder.bytes.len() {
        return Err(decoder.err("trailing characters after JSON value"));
    }
    Ok(request)
}

/// A JSON number as the shim reads it: integer tokens that fit 64 bits
/// stay integers, everything else is a float.
enum Number {
    U64(u64),
    I64(i64),
    F64(f64),
}

impl Number {
    fn to_f64(&self) -> f64 {
        match *self {
            Number::U64(v) => v as f64,
            Number::I64(v) => v as f64,
            Number::F64(v) => v,
        }
    }
}

/// Each byte's base64 sextet, or `INVALID` outside the alphabet (`=`
/// included: padding is read by position).
const SEXTET: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    table
};

const INVALID: u8 = 0xff;

/// The 24 bits of four base64 characters; ORs their sextets into `bad`,
/// which then exceeds 63 if any was outside the alphabet.
fn quad(chars: &[u8; 4], bad: &mut u8) -> u32 {
    let [a, b, c, d] = chars.map(|ch| SEXTET[usize::from(ch)]);
    *bad |= a | b | c | d;
    u32::from(a) << 18 | u32::from(b) << 12 | u32::from(c) << 6 | u32::from(d)
}

fn push_f64s(row: &mut Vec<f64>, bytes: &[u8]) {
    let (words, _) = bytes.as_chunks::<8>();
    row.extend(words.iter().map(|&word| f64::from_le_bytes(word)));
}

/// Decodes the text of a bit-form row, or returns what is wrong and its
/// offset in `text`. Strict and canonical: padded to a multiple of four
/// characters, `=` only as that padding, zero padding bits, and a whole,
/// non-zero number of f64s.
fn decode_bit_row(text: &[u8]) -> Result<Vec<f64>, (&'static str, usize)> {
    if text.is_empty() {
        return Err(("empty bit row", 0));
    }
    if !text.len().is_multiple_of(4) {
        return Err(("bit row length is not a multiple of 4", text.len()));
    }
    let pad = text
        .iter()
        .rev()
        .take(2)
        .take_while(|&&b| b == b'=')
        .count();
    let bytes = text.len() / 4 * 3 - pad;
    if !bytes.is_multiple_of(8) {
        return Err(("bit row bytes are not a multiple of 8", text.len()));
    }
    let mut row = Vec::with_capacity(bytes / 8);
    let mut bad = 0u8;
    // Whole 32-character blocks hold three elements each; the tail,
    // which holds the padding, one or two.
    let (blocks, tail) = text.as_chunks::<32>();
    for block in blocks {
        let mut out = [0u8; 24];
        let (quads, _) = block.as_chunks::<4>();
        for (chars, dst) in quads.iter().zip(out.chunks_exact_mut(3)) {
            dst.copy_from_slice(&quad(chars, &mut bad).to_be_bytes()[1..]);
        }
        push_f64s(&mut row, &out);
    }
    // The tail is 0, 12 or 24 characters (the length checks above fix
    // it). `A`, sextet 0, stands in for the padding, whose bits are
    // checked below.
    let mut chars = [b'A'; 24];
    chars[..tail.len() - pad].copy_from_slice(&tail[..tail.len() - pad]);
    let mut out = [0u8; 24];
    let mut last = 0;
    let (quads, _) = chars[..tail.len()].as_chunks::<4>();
    for (chars, dst) in quads.iter().zip(out.chunks_exact_mut(3)) {
        last = quad(chars, &mut bad);
        dst.copy_from_slice(&last.to_be_bytes()[1..]);
    }
    if bad > 63 {
        let at = text[..text.len() - pad]
            .iter()
            .position(|&b| SEXTET[usize::from(b)] == INVALID)
            .unwrap_or(0);
        return Err(("invalid base64 character in bit row", at));
    }
    // The bits past the last whole byte must be zero.
    if last & ((1 << (8 * pad)) - 1) != 0 {
        return Err(("non-zero padding bits in bit row", text.len() - pad - 1));
    }
    push_f64s(&mut row, &out[..tail.len() / 4 * 3 - pad]);
    Ok(row)
}

/// The offset of the first `"` or `\` in `bytes`. Whole 32-byte blocks
/// are tested without an early exit, a loop the compiler vectorises, so
/// a bit row's ~8 KB string (784 elements) is crossed at memory speed.
fn find_quote_or_backslash(bytes: &[u8]) -> Option<usize> {
    let special = |b: &u8| *b == b'"' || *b == b'\\';
    let (blocks, _) = bytes.as_chunks::<32>();
    let clean = blocks
        .iter()
        .take_while(|block| !block.iter().fold(false, |hit, b| hit | special(b)))
        .count();
    let skip = clean * 32;
    bytes[skip..].iter().position(special).map(|at| skip + at)
}

/// A single-pass scanner over one line, with the shim's grammar.
struct Decoder<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn err(&self, message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), WireError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// After a container element: consumes `,` (returning `true`) or
    /// the closing byte (returning `false`).
    fn next_element(&mut self, close: u8) -> Result<bool, WireError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err(format!("expected `,` or `{}`", close as char))),
        }
    }

    /// Consumes `open` and whitespace; `true` if the container is
    /// empty (its closing byte consumed too).
    fn open_container(&mut self, open: u8, close: u8) -> Result<bool, WireError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(true);
        }
        Ok(false)
    }

    /// An object key and its `:`.
    fn key(&mut self) -> Result<Cow<'a, str>, WireError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    fn request(&mut self) -> Result<Request, WireError> {
        self.skip_ws();
        // `None` until a key is first seen: the first occurrence wins.
        let mut op: Option<String> = None;
        let mut session: Option<Option<String>> = None;
        let mut victim: Option<Option<String>> = None;
        let mut seed: Option<Option<u64>> = None;
        let mut budget: Option<Option<u64>> = None;
        let mut inputs: Option<Option<Vec<Vec<f64>>>> = None;
        let mut format: Option<Option<String>> = None;
        if !self.open_container(b'{', b'}')? {
            loop {
                let key = self.key()?;
                match key.as_ref() {
                    "op" if op.is_none() => op = Some(self.string()?.into_owned()),
                    "session" if session.is_none() => session = Some(self.opt_string()?),
                    "victim" if victim.is_none() => victim = Some(self.opt_string()?),
                    "seed" if seed.is_none() => seed = Some(self.opt_u64()?),
                    "budget" if budget.is_none() => budget = Some(self.opt_u64()?),
                    "inputs" if inputs.is_none() => inputs = Some(self.opt_inputs()?),
                    "format" if format.is_none() => format = Some(self.opt_string()?),
                    _ => self.skip_value()?,
                }
                if !self.next_element(b'}')? {
                    break;
                }
            }
        }
        Ok(Request {
            op: op.ok_or_else(|| self.err("op: expected string, found null"))?,
            session: session.flatten(),
            victim: victim.flatten(),
            seed: seed.flatten(),
            budget: budget.flatten(),
            inputs: inputs.flatten(),
            format: format.flatten(),
        })
    }

    fn opt_string(&mut self) -> Result<Option<String>, WireError> {
        if self.peek() == Some(b'n') {
            self.keyword("null")?;
            return Ok(None);
        }
        Ok(Some(self.string()?.into_owned()))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.peek() {
            Some(b'n') => {
                self.keyword("null")?;
                Ok(None)
            }
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Number::U64(v) => Ok(Some(v)),
                // Only `-0` (and `-00`...) is a non-negative `I64`.
                Number::I64(v) if v >= 0 => Ok(Some(v as u64)),
                _ => Err(self.err("expected unsigned integer")),
            },
            _ => Err(self.err("expected unsigned integer")),
        }
    }

    fn opt_inputs(&mut self) -> Result<Option<Vec<Vec<f64>>>, WireError> {
        if self.peek() == Some(b'n') {
            self.keyword("null")?;
            return Ok(None);
        }
        let mut rows = Vec::new();
        if self.open_container(b'[', b']')? {
            return Ok(Some(rows));
        }
        loop {
            self.skip_ws();
            let row = if self.peek() == Some(b'"') {
                self.bit_row()?
            } else {
                self.row(rows.last().map_or(0, Vec::len))?
            };
            rows.push(row);
            if !self.next_element(b']')? {
                return Ok(Some(rows));
            }
        }
    }

    fn row(&mut self, capacity: usize) -> Result<Vec<f64>, WireError> {
        let mut row = Vec::with_capacity(capacity);
        if self.open_container(b'[', b']')? {
            return Ok(row);
        }
        loop {
            self.skip_ws();
            // Nearly every element of a one-hot probe row is a bare
            // `0.0`, which `str::parse` reads as `+0.0`.
            if let [b'0', b'.', b'0', b',' | b']', ..] = self.bytes[self.pos..] {
                self.pos += 3;
                row.push(0.0);
            } else {
                if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
                    return Err(self.err("expected number"));
                }
                row.push(self.number()?.to_f64());
            }
            if !self.next_element(b']')? {
                return Ok(row);
            }
        }
    }

    /// A row in the bit form: a string, without escapes, holding the
    /// strict, canonical base64 of the elements' little-endian bytes.
    fn bit_row(&mut self) -> Result<Vec<f64>, WireError> {
        let start = self.pos + 1;
        let Cow::Borrowed(text) = self.string()? else {
            return Err(WireError {
                message: "escape in a bit row".into(),
                at: start,
            });
        };
        decode_bit_row(text.as_bytes()).map_err(|(message, offset)| WireError {
            message: message.into(),
            at: start + offset,
        })
    }

    /// A number token, read exactly as the shim reads it: the token
    /// runs over `-? digits* (. digits*)? ([eE] [+-]? digits*)?`, and
    /// std parses it.
    fn number(&mut self) -> Result<Number, WireError> {
        let start = self.pos;
        let digits = |d: &mut Self| {
            while let Some(b'0'..=b'9') = d.peek() {
                d.pos += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if let Some(b'e' | b'E') = self.peek() {
            is_float = true;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            digits(self);
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Some(magnitude) = text.strip_prefix('-') {
                if let Ok(v) = magnitude.parse::<i64>() {
                    return Ok(Number::I64(-v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Number::U64(v));
            }
            // An integer overflowing 64 bits: read as a float.
        }
        text.parse::<f64>()
            .map(Number::F64)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }

    /// A string token, unescaped; borrowed from the line when it holds
    /// no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, WireError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            // `"` and `\` never occur inside a multi-byte character, so
            // every other byte is copied verbatim.
            let Some(offset) = find_quote_or_backslash(&self.bytes[self.pos..]) else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += offset;
            if self.bytes[self.pos] == b'"' {
                let text = self.text;
                let tail = &text[run..self.pos];
                self.pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(tail),
                    Some(mut s) => {
                        s.push_str(tail);
                        Cow::Owned(s)
                    }
                });
            }
            let text = self.text;
            let before = &text[run..self.pos];
            self.pos += 1;
            let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
            self.pos += 1;
            let c = match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{08}',
                b'f' => '\u{0c}',
                b'u' => self.unicode_escape()?,
                other => return Err(self.err(format!("invalid escape `\\{}`", other as char))),
            };
            let s = owned.get_or_insert_with(String::new);
            s.push_str(before);
            s.push(c);
            run = self.pos;
        }
    }

    /// The character of a `\u` escape whose `\u` is consumed: a BMP
    /// code point, or a high surrogate followed by `\u` and a low one.
    fn unicode_escape(&mut self) -> Result<char, WireError> {
        let code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            self.expect(b'\\')?;
            self.expect(b'u')?;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            return char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    /// Four hex digits, read as the shim reads them (by
    /// `u32::from_str_radix`, which also takes a leading `+`).
    fn hex4(&mut self) -> Result<u32, WireError> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Validates and skips one JSON value. Iterative: nesting depth
    /// costs no stack.
    fn skip_value(&mut self) -> Result<(), WireError> {
        // The containers open around the current value; `true` marks
        // an object.
        let mut open: Vec<bool> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'[') => {
                    if !self.open_container(b'[', b']')? {
                        open.push(false);
                        continue;
                    }
                }
                Some(b'{') => {
                    if !self.open_container(b'{', b'}')? {
                        open.push(true);
                        self.key()?;
                        continue;
                    }
                }
                Some(b'n') => self.keyword("null")?,
                Some(b't') => self.keyword("true")?,
                Some(b'f') => self.keyword("false")?,
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                Some(b) => return Err(self.err(format!("unexpected character {:?}", b as char))),
                None => return Err(self.err("unexpected end of input")),
            }
            // A value is complete: close finished containers, or move
            // on to the next element of the innermost open one.
            loop {
                let Some(&is_object) = open.last() else {
                    return Ok(());
                };
                if self.next_element(if is_object { b'}' } else { b']' })? {
                    if is_object {
                        self.key()?;
                    }
                    break;
                }
                open.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn debug_text(v: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, v, Pow5Tables::get());
        String::from_utf8(out).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200_000))]

        /// Every finite bit pattern formats as `{:?}` does.
        #[test]
        fn formatter_matches_debug_on_arbitrary_bits(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                prop_assert_eq!(debug_text(v), format!("{v:?}"));
            } else {
                prop_assert_eq!(debug_text(v), "null");
            }
        }
    }

    #[test]
    fn formatter_matches_debug_on_edges() {
        let mut edges = vec![
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1.0,
            0.1,
            1e-4,
            1e16,
            // The exact-tie case: 562949953421312.25, where `{:?}`
            // rounds up to ...312.3 and plain Ryū to even, ...312.2.
            f64::from_bits(0x4300_0000_0000_0002),
        ];
        for boundary in [1e-4, 1e16, f64::MIN_POSITIVE, 5e-324, f64::MAX] {
            let bits = f64::to_bits(boundary);
            for neighbour in [bits.wrapping_sub(1), bits + 1] {
                edges.push(f64::from_bits(neighbour));
            }
        }
        // Integers and powers of two and ten, where trailing zeros and
        // the halved lower gap take the rare branches.
        for e in -1074..=1023 {
            edges.push(2f64.powi(e));
        }
        for e in -323..=308 {
            edges.push(format!("1e{e}").parse().unwrap());
        }
        for n in 0..10_000u32 {
            edges.push(f64::from(n));
            edges.push(f64::from(n) / 8.0);
        }
        for v in edges {
            for v in [v, -v] {
                if v.is_finite() {
                    assert_eq!(debug_text(v), format!("{v:?}"), "bits {:#x}", v.to_bits());
                }
            }
        }
        assert_eq!(
            debug_text(f64::from_bits(0x4300_0000_0000_0002)),
            "562949953421312.3"
        );
    }

    /// `floor(2^k / d)` by plain `u128` long division (the carry out of
    /// the top bit stands in for a 129th bit).
    fn div_pow2(k: u32, d: u128) -> u128 {
        let mut quotient = 0u128;
        let mut rem = 0u128;
        for bit in (0..=k).rev() {
            let carry = rem >> 127;
            rem = (rem << 1) | u128::from(bit == k);
            quotient <<= 1;
            if carry == 1 || rem >= d {
                rem = rem.wrapping_sub(d);
                quotient |= 1;
            }
        }
        quotient
    }

    #[test]
    fn pow5_tables_match_direct_u128_arithmetic() {
        let tables = Pow5Tables::get();
        assert_eq!(tables.inv.len(), POW5_INV_TABLE_LEN);
        assert_eq!(tables.pow.len(), POW5_TABLE_LEN);
        assert_eq!(tables.inv[0], (1u128 << 125) + 1);
        assert_eq!(tables.pow[0], 1u128 << 124);
        let mut checked = 0;
        let mut five = 1u128;
        for i in 0..POW5_TABLE_LEN {
            let bits = 128 - five.leading_zeros();
            assert_eq!(bits as i32, pow5bits(i as i32), "pow5bits({i})");
            let pow = if bits <= 125 {
                five << (125 - bits)
            } else {
                five >> (bits - 125)
            };
            assert_eq!(tables.pow[i], pow, "pow[{i}]");
            assert_eq!(
                tables.inv[i],
                div_pow2(bits - 1 + 125, five) + 1,
                "inv[{i}]"
            );
            checked += 1;
            match five.checked_mul(5) {
                Some(next) => five = next,
                None => break,
            }
        }
        // 5^55 is the last power of five below 2^128.
        assert_eq!(checked, 56);
    }

    #[test]
    fn digits_and_strings_encode_like_the_shim() {
        for v in [0, 9, 10, 99, 100, 12345, u64::MAX] {
            let mut buf = [0u8; 20];
            let start = write_digits(v, &mut buf);
            assert_eq!(&buf[start..], v.to_string().as_bytes());
        }
        let mut out = Vec::new();
        write_str(&mut out, "a\"b\\c\n\r\t\u{8}\u{c}\u{1}\u{1f}\u{7f}é😀");
        assert_eq!(
            String::from_utf8(out).unwrap(),
            serde_json::to_string("a\"b\\c\n\r\t\u{8}\u{c}\u{1}\u{1f}\u{7f}é😀").unwrap()
        );
    }

    /// Rows too sparse for the bit form, and empty ones, encode as the
    /// owned request does.
    #[test]
    fn query_view_encodes_like_the_owned_request() {
        let inputs = vec![
            vec![0.5, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, -0.0, 0.0, 0.0, 0.0],
            vec![],
        ];
        let mut request = Request::new("query");
        request.session = Some("s\"1".into());
        request.inputs = Some(inputs.clone());
        let mut owned = String::new();
        encode_request(&request, &mut owned);
        let mut borrowed = Vec::new();
        write_request(&RequestRef::query("s\"1", &inputs), &mut borrowed);
        assert_eq!(owned.as_bytes(), borrowed.as_slice());
        assert_eq!(owned, serde_json::to_string(&request).unwrap());
    }

    /// A [`RequestRef::query`] writes a one-hot row, and a row with
    /// fewer than one non-zero in four, as decimal text, and denser rows
    /// as bits.
    #[test]
    fn client_rows_choose_their_form() {
        let mut one_hot = vec![0.0; 784];
        one_hot[17] = 1.0;
        let dense: Vec<f64> = (0..784).map(|i| f64::from(i % 3) / 2.0).collect();
        let quarter: Vec<f64> = (0..8).map(|i| f64::from(u8::from(i % 4 == 0))).collect();
        let mut under = quarter.clone();
        under[4] = 0.0;
        let inputs = [one_hot, dense, quarter, under];
        let mut line = Vec::new();
        write_request(&RequestRef::query("s", &inputs), &mut line);

        let decimal = |row: &Vec<f64>| serde_json::to_string(row).unwrap();
        let bits = |row: &Vec<f64>| {
            let mut out = Vec::new();
            write_bit_row(&mut out, row);
            String::from_utf8(out).unwrap()
        };
        let rows = [
            decimal(&inputs[0]),
            bits(&inputs[1]),
            bits(&inputs[2]),
            decimal(&inputs[3]),
        ];
        assert_eq!(
            String::from_utf8(line).unwrap(),
            format!(
                "{{\"op\":\"query\",\"session\":\"s\",\"victim\":null,\"seed\":null,\
                 \"budget\":null,\"inputs\":[{}],\"format\":null}}",
                rows.join(",")
            )
        );
    }

    #[test]
    fn bit_rows_round_trip_every_tail_length() {
        for n in 1..=7 {
            let row: Vec<f64> = (0..n).map(|i| -1.5e-300 * f64::from(i + 1)).collect();
            let mut out = Vec::new();
            write_bit_row(&mut out, &row);
            assert_eq!(out.len(), 4 * (8 * n as usize).div_ceil(3) + 2);
            let decoded = decode_bit_row(&out[1..out.len() - 1]).unwrap();
            assert_eq!(decoded, row);
        }
    }

    #[test]
    fn skipping_deep_nesting_uses_no_stack() {
        let depth = 1_000_000;
        let line = format!(
            "{{\"op\":\"stats\",\"x\":{}1{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        assert_eq!(decode_request(&line).unwrap(), Request::new("stats"));
        let unclosed = format!("{{\"op\":\"stats\",\"x\":{}}}", "[{\"a\":".repeat(depth));
        assert!(decode_request(&unclosed).is_err());
    }
}
