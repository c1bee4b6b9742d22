//! The bit form of a query row: a JSON string holding the base64 of the
//! row's f64s, little-endian. This file builds bit rows with its own
//! base64 encoder, independent of the codec's.
//!
//! * For arbitrary finite rows, the bit-form line decodes to the same
//!   bits as the decimal line, and a request mixing both forms decodes
//!   row by row.
//! * A bit row can carry NaN and ±inf, which decimal cannot: the server
//!   refuses them as it refuses `1e999`, naming the sample and element,
//!   before the session's budget is touched.
//! * A malformed bit row is a `usage` reply, never a panic, and the
//!   connection stays open.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use proptest::prelude::*;
use xbar_core::oracle::{Oracle, OracleConfig};
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;
use xbar_serve::{decode_request, Response, ServeConfig, Server, VictimRegistry};

/// The padded base64 of `bytes`, one group of up to three bytes at a
/// time.
fn base64(bytes: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::new();
    for group in bytes.chunks(3) {
        let n = group
            .iter()
            .enumerate()
            .fold(0u32, |n, (i, &b)| n | u32::from(b) << (16 - 8 * i));
        for i in 0..4 {
            if i <= group.len() {
                out.push(char::from(ALPHABET[(n >> (18 - 6 * i) & 63) as usize]));
            } else {
                out.push('=');
            }
        }
    }
    out
}

/// `row` in the bit form, quoted.
fn bit_row(row: &[f64]) -> String {
    let bytes: Vec<u8> = row.iter().flat_map(|v| v.to_le_bytes()).collect();
    format!("\"{}\"", base64(&bytes))
}

/// `row` as decimal text, as the shim writes it.
fn decimal_row(row: &[f64]) -> String {
    serde_json::to_string(&row.to_vec()).unwrap()
}

fn query_line(rows: &[String]) -> String {
    format!(
        r#"{{"op":"query","session":"s","inputs":[{}]}}"#,
        rows.join(",")
    )
}

/// The decoded rows of `line`, as bits.
fn decoded_bits(line: &str) -> Vec<Vec<u64>> {
    let request = decode_request(line).unwrap_or_else(|e| panic!("{e}: {line:.200}"));
    request
        .inputs
        .expect("inputs")
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Finite floats the rows must carry: signed zeros, subnormals, the
/// extremes.
const SPECIAL_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    -2.2250738585072e-308,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    1.0,
    0.1,
];

/// Any finite bit pattern, with one draw in four taken from
/// [`SPECIAL_FLOATS`] instead.
fn finite_float() -> impl Strategy<Value = f64> {
    (any::<u64>(), 0u8..4).prop_map(|(bits, pick)| {
        let v = f64::from_bits(bits);
        if pick == 0 || !v.is_finite() {
            SPECIAL_FLOATS[(bits % SPECIAL_FLOATS.len() as u64) as usize]
        } else {
            v
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Every row decodes to its own bits in both forms, alone or mixed
    /// in one request.
    #[test]
    fn bit_rows_decode_to_the_bits_of_decimal_rows(
        rows in prop::collection::vec(prop::collection::vec(finite_float(), 1..20), 1..5),
        forms in prop::collection::vec(any::<bool>(), 5),
    ) {
        let expected: Vec<Vec<u64>> = rows
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect();
        let decimal: Vec<String> = rows.iter().map(|row| decimal_row(row)).collect();
        let bits: Vec<String> = rows.iter().map(|row| bit_row(row)).collect();
        let mixed: Vec<String> = rows
            .iter()
            .zip(&forms)
            .map(|(row, &as_bits)| if as_bits { bit_row(row) } else { decimal_row(row) })
            .collect();
        prop_assert_eq!(&decoded_bits(&query_line(&decimal)), &expected);
        prop_assert_eq!(&decoded_bits(&query_line(&bits)), &expected);
        prop_assert_eq!(&decoded_bits(&query_line(&mixed)), &expected);
    }
}

/// A server hosting a 2-input toy victim, and a raw connection to it
/// with a session `s` of budget 4 open.
struct Toy {
    server: Server,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Toy {
    fn start() -> Toy {
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 0.5]]),
            Activation::Identity,
        );
        let mut registry = VictimRegistry::new();
        registry
            .insert("toy", Oracle::new(net, &OracleConfig::ideal(), 7).unwrap())
            .unwrap();
        let server = Server::start("127.0.0.1:0", registry, ServeConfig::default()).unwrap();
        let writer = TcpStream::connect(server.local_addr()).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        let mut toy = Toy {
            server,
            writer,
            reader,
        };
        let hello =
            toy.exchange(r#"{"op":"hello","session":"s","victim":"toy","seed":1,"budget":4}"#);
        assert!(hello.ok, "{hello:?}");
        toy
    }

    fn exchange(&mut self, line: &str) -> Response {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        serde_json::from_str(&reply).unwrap()
    }

    /// Asserts that `line` is refused `usage` with a message containing
    /// `detail`, and returns the message.
    fn refused(&mut self, line: &str, detail: &str) -> String {
        let reply = self.exchange(line);
        assert!(!reply.ok, "{line}: {reply:?}");
        assert_eq!(reply.code.as_deref(), Some("usage"), "{line}");
        let message = reply.error.unwrap_or_default();
        assert!(message.contains(detail), "{line}: {message}");
        message
    }

    /// Closes the session and returns the queries it has spent.
    fn finish(mut self) -> u64 {
        let closed = self.exchange(r#"{"op":"close","session":"s"}"#);
        drop(self.writer);
        self.server.shutdown();
        closed.status.expect("close status").used
    }
}

#[test]
fn non_finite_bit_rows_are_usage_errors_that_spend_no_budget() {
    let mut toy = Toy::start();
    let cases = [
        ([0.0, f64::NAN], "sample 1 element 1"),
        ([f64::INFINITY, 0.0], "sample 1 element 0"),
        ([0.5, f64::NEG_INFINITY], "sample 1 element 1"),
        ([-f64::NAN, 1.0], "sample 1 element 0"),
    ];
    for (row, detail) in cases {
        let line = query_line(&[decimal_row(&[0.5, 0.5]), bit_row(&row)]);
        toy.refused(&line, detail);
    }
    // The connection stays open, a finite bit row is answered, and only
    // it was spent.
    let good = toy.exchange(&query_line(&[bit_row(&[0.5, -0.25])]));
    assert!(good.ok, "{good:?}");
    assert_eq!(toy.finish(), 1);
}

#[test]
fn malformed_bit_rows_are_usage_errors_on_an_open_connection() {
    let mut toy = Toy::start();
    // `AAAAAAAAAAA=` is the canonical text of one `+0.0`, and 24
    // characters ending `==` that of two.
    let malformed = [
        // Lengths: bytes not a multiple of 8, characters not a multiple
        // of 4, and no padding.
        (r#""AAAA""#, "not a multiple of 8"),
        (r#""AAAAAAAAAAAAAAAA""#, "not a multiple of 8"),
        (r#""AAAAAAAAAAA""#, "not a multiple of 4"),
        (r#""AAAAAAAAAAAAAAAAAAAAAA""#, "not a multiple of 4"),
        // Characters outside the alphabet: URL-safe base64, a space,
        // multi-byte UTF-8, a control byte.
        (r#""AAAA-AAAAAA=""#, "invalid base64 character"),
        (r#""AAAA_AAAAAA=""#, "invalid base64 character"),
        (r#""AAAA AAAAAA=""#, "invalid base64 character"),
        ("\"AAAAAé\u{1}AAA=\"", "invalid base64 character"),
        // `=` anywhere but the padding.
        (r#""AAA=AAAAAAA=""#, "invalid base64 character"),
        (r#""=AAAAAAAAAA=""#, "invalid base64 character"),
        (r#""AAAAAAAAAAAAAAAAAAAAA===""#, "invalid base64 character"),
        (r#""AAAAAAAAAA==""#, "not a multiple of 8"),
        // Non-zero bits under the padding.
        (r#""AAAAAAAAAAB=""#, "padding bits"),
        (r#""AAAAAAAAAAAAAAAAAAAAAB==""#, "padding bits"),
        // Escapes, even of alphabet characters.
        (r#""\u0041AAAAAAAAAA=""#, "escape in a bit row"),
        (r#""AAAAAAAAAA\u0041=""#, "escape in a bit row"),
        (r#""AAAAAAAAAA\/=""#, "escape in a bit row"),
        // An empty row is `[]`, never `""`.
        (r#""""#, "empty bit row"),
        // An unterminated string.
        (r#""AAAAAAAAAAA="#, "bad request"),
    ];
    for (row, detail) in malformed {
        let line = query_line(&[decimal_row(&[0.5, 0.5]), row.to_string()]);
        assert!(decode_request(&line).is_err(), "{line}");
        let message = toy.refused(&line, detail);
        assert!(message.starts_with("bad request: "), "{message}");
    }
    // The connection is still open and the budget untouched.
    let good = toy.exchange(&query_line(&[bit_row(&[0.0, -0.0])]));
    assert!(good.ok, "{good:?}");
    assert_eq!(toy.finish(), 1);
}
