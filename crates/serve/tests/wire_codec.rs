//! Differential tests of the typed request codec against the vendored
//! `serde_json` shim, which is the reference.
//!
//! * Encode: for arbitrary requests, [`encode_request`] writes the same
//!   bytes as `serde_json::to_string`.
//! * Decode: [`decode_request`] and `serde_json::from_str::<Request>`
//!   agree — both fail, or both succeed with equal requests (floats
//!   compared bit for bit) — on every encoded line, on a fixed list of
//!   edge cases, on mutated lines, on rows of tokens at the number
//!   edges, and on arbitrary strings.
//!
//! No case may panic. Over a socket, a line that fails to decode is a
//! `usage` error and the connection stays open, and so is a query whose
//! numbers decode to a non-finite input (`1e999` is `+inf`): it is
//! refused before the session's budget is touched.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use proptest::prelude::*;
use xbar_core::oracle::{Oracle, OracleConfig};
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;
use xbar_serve::{
    decode_request, encode_request, Request, Response, ServeConfig, Server, VictimRegistry,
};

/// Characters that stress string escaping: quotes, backslashes, every
/// kind of control character, DEL, and multi-byte UTF-8.
const STRING_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', 'é', '\u{2028}', '😀',
];

fn string() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(STRING_CHARS.to_vec()), 0..10)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Floats the wire must handle specially: non-finite (written as
/// `null`), signed zero, subnormals and the extremes.
const SPECIAL_FLOATS: &[f64] = &[
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -2.2250738585072e-308,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    1.0,
    1e16,
    1e-4,
];

/// Arbitrary bit patterns, with one draw in four taken from
/// [`SPECIAL_FLOATS`] instead.
fn float() -> impl Strategy<Value = f64> {
    (any::<u64>(), 0u8..4).prop_map(|(bits, pick)| {
        if pick == 0 {
            SPECIAL_FLOATS[(bits % SPECIAL_FLOATS.len() as u64) as usize]
        } else {
            f64::from_bits(bits)
        }
    })
}

/// Finite floats only, so a line's `inputs` decode.
fn finite_float() -> impl Strategy<Value = f64> {
    float().prop_map(|v| if v.is_finite() { v } else { 0.5 })
}

fn rows(element: impl Strategy<Value = f64>) -> impl Strategy<Value = Option<Vec<Vec<f64>>>> {
    prop::option::of(prop::collection::vec(
        prop::collection::vec(element, 0..5),
        0..4,
    ))
}

fn request_with(
    inputs: impl Strategy<Value = Option<Vec<Vec<f64>>>>,
) -> impl Strategy<Value = Request> {
    let op = prop::sample::select(vec!["hello", "query", "close", "stats", "shutdown", "x\"y"]);
    (
        (op, prop::option::of(string()), prop::option::of(string())),
        (
            prop::option::of(any::<u64>()),
            prop::option::of(any::<u64>()),
        ),
        (inputs, prop::option::of(string())),
    )
        .prop_map(
            |((op, session, victim), (seed, budget), (inputs, format))| Request {
                op: op.to_string(),
                session,
                victim,
                seed,
                budget,
                inputs,
                format,
            },
        )
}

/// Equal requests, with floats compared by their bits (so `-0.0` and
/// `0.0` differ and NaN equals itself).
fn same_request(a: &Request, b: &Request) -> bool {
    let same_inputs = match (&a.inputs, &b.inputs) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(r, s)| {
                    r.len() == s.len() && r.iter().zip(s).all(|(u, v)| u.to_bits() == v.to_bits())
                })
        }
        _ => false,
    };
    same_inputs
        && a.op == b.op
        && a.session == b.session
        && a.victim == b.victim
        && a.seed == b.seed
        && a.budget == b.budget
        && a.format == b.format
}

/// `Ok(())` when the codec and the shim agree on `line`.
fn agree(line: &str) -> Result<(), String> {
    let ours = decode_request(line);
    let reference = serde_json::from_str::<Request>(line);
    match (&ours, &reference) {
        (Err(_), Err(_)) => Ok(()),
        (Ok(a), Ok(b)) if same_request(a, b) => Ok(()),
        _ => Err(format!(
            "line {line:?}: codec {ours:?}, shim {:?}",
            reference.as_ref().map_err(ToString::to_string)
        )),
    }
}

fn encode(request: &Request) -> String {
    let mut line = String::new();
    encode_request(request, &mut line);
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The encoder writes the shim's exact bytes, and both decoders
    /// read them back the same way (lines holding non-finite floats
    /// carry `null` and fail in both).
    #[test]
    fn encoded_lines_match_the_shim(request in request_with(rows(float()))) {
        let line = encode(&request);
        prop_assert_eq!(&line, &serde_json::to_string(&request).unwrap());
        prop_assert!(agree(&line).is_ok(), "{}", agree(&line).unwrap_err());
    }

    /// Lines of finite floats decode back to the request, bit for bit.
    #[test]
    fn finite_requests_roundtrip(request in request_with(rows(finite_float()))) {
        let decoded = decode_request(&encode(&request)).unwrap();
        prop_assert!(same_request(&decoded, &request), "{decoded:?} != {request:?}");
    }

    /// Truncations, byte substitutions and insertions of encoded lines
    /// (kept valid UTF-8) are accepted or rejected as the shim does.
    #[test]
    fn mutated_lines_agree_with_the_shim(
        request in request_with(rows(finite_float())),
        at in any::<u64>(),
        kind in 0u8..3,
        byte in prop::sample::select(b"{}[],:\"\\-+.eE019 \tnultrfa/x".to_vec()),
    ) {
        let line = encode(&request);
        // A char boundary to cut or edit at.
        let mut at = (at % (line.len() as u64 + 1)) as usize;
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let byte = char::from(byte);
        let mutated = match kind {
            0 => line[..at].to_string(),
            1 => {
                let mut s = line[..at].to_string();
                s.push(byte);
                s.push_str(&line[at..]);
                s
            }
            _ => {
                let rest = &line[at..];
                let skip = rest.chars().next().map_or(0, char::len_utf8);
                format!("{}{byte}{}", &line[..at], &rest[skip..])
            }
        };
        prop_assert!(agree(&mutated).is_ok(), "{}", agree(&mutated).unwrap_err());
    }
}

/// Digit strings at the decoder's number edges: mantissas at 2^53 − 1,
/// 2^53 and 2^53 + 1; 19- and 20-digit strings (around the 64-bit
/// integer limit); 21 to 24 digits (22 and 23 fraction digits after
/// `0.`); and short ones.
fn edge_digits() -> impl Strategy<Value = String> {
    (0u8..5, any::<u64>(), any::<u64>()).prop_map(|(kind, a, b)| match kind {
        0 => ((1u64 << 53) - 1 + a % 3).to_string(),
        1 => format!("{:019}", a % 10u64.pow(19)),
        2 => format!("{a:020}"),
        3 => format!("{a:020}{:04}", b % 10_000)[..21 + (b % 4) as usize].to_string(),
        _ => (a % 1000).to_string(),
    })
}

/// Tokens of the number grammar at its edges: a sign,
/// leading zeros, the digits of [`edge_digits`] split by a point so that
/// they carry a chosen number of fraction digits (none: `1.`; all:
/// `.5`; more than the digits: zero-padded after `0.`), or no point at
/// all, then a suffix that may extend the token (`5`, an exponent, a
/// bare `e`/`E`) or end it (a space). One token in five is a fixed edge
/// instead, most of them next to the decoder's bare-`0.0` shortcut.
fn edge_token() -> impl Strategy<Value = String> {
    const FRACTION: &[Option<usize>] = &[
        None,
        Some(0),
        Some(1),
        Some(2),
        Some(8),
        Some(16),
        Some(17),
        Some(21),
        Some(22),
        Some(23),
        Some(24),
    ];
    const SUFFIX: &[&str] = &["", "", "", " ", "5", "e0", "e", "E", "E+1", "e-"];
    const FIXED: &[&str] = &[
        "0.0", "0.0", "-0.0", "0.0 ", "0.05", "0.0e0", "-0", "00.0", "1.", "1.e", "1.0E", "-0.",
    ];
    (
        (edge_digits(), any::<bool>(), 0usize..3),
        prop::sample::select(FRACTION.to_vec()),
        prop::sample::select(SUFFIX.to_vec()),
        (0u8..5, prop::sample::select(FIXED.to_vec())),
    )
        .prop_map(
            |((digits, negative, zeros), fraction, suffix, (pick, fixed))| {
                if pick == 0 {
                    return fixed.to_string();
                }
                let sign = if negative { "-" } else { "" };
                let zeros = "0".repeat(zeros);
                let number = match fraction {
                    None => digits,
                    Some(f) if f <= digits.len() => {
                        let (int, frac) = digits.split_at(digits.len() - f);
                        format!("{int}.{frac}")
                    }
                    Some(f) => format!("0.{digits:0>f$}"),
                };
                format!("{sign}{zeros}{number}{suffix}")
            },
        )
}

/// Characters for arbitrary lines: JSON's structural bytes, number and
/// keyword letters, whitespace (JSON's and not), escapes and multi-byte
/// UTF-8.
const LINE_CHARS: &[char] = &[
    '{', '}', '[', ']', ',', ':', '"', '\\', '-', '+', '.', 'e', 'E', '0', '1', '5', '9', ' ',
    '\t', '\n', '\r', 'n', 'u', 'l', 't', 'r', 'f', 'a', 's', 'x', '/', '\u{0}', '\u{a0}', 'é',
    '😀',
];

/// Arbitrary strings: one character in four is any code point, the
/// others come from [`LINE_CHARS`].
fn arbitrary_text() -> impl Strategy<Value = String> {
    let character = (
        any::<u32>(),
        prop::sample::select(LINE_CHARS.to_vec()),
        0u8..4,
    )
        .prop_map(|(code, common, pick)| {
            if pick == 0 {
                char::from_u32(code % 0x11_0000).unwrap_or('\u{fffd}')
            } else {
                common
            }
        });
    prop::collection::vec(character, 0..40).prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// Rows of tokens around the number edges decode as the shim reads
    /// them: the same lines accepted and the same bits.
    #[test]
    fn number_edges_agree_with_the_shim(
        rows in prop::collection::vec(prop::collection::vec(edge_token(), 1..6), 1..3),
    ) {
        let rows: Vec<String> = rows.iter().map(|row| format!("[{}]", row.join(","))).collect();
        let line = format!(r#"{{"op":"query","session":"s","inputs":[{}]}}"#, rows.join(","));
        prop_assert!(agree(&line).is_ok(), "{}", agree(&line).unwrap_err());
    }

    /// Arbitrary strings, alone, as the rest of a query's first row, and
    /// as that row's contents, are accepted or rejected as the shim
    /// does; none panics.
    #[test]
    fn arbitrary_text_decodes_like_the_shim(text in arbitrary_text()) {
        for line in [
            text.clone(),
            format!(r#"{{"op":"query","inputs":[[{text}"#),
            format!(r#"{{"op":"query","inputs":[[{text}]]}}"#),
        ] {
            prop_assert!(agree(&line).is_ok(), "{}", agree(&line).unwrap_err());
        }
    }
}

#[test]
fn edge_lines_agree_with_the_shim() {
    let inputs = [
        "[[-0]]",
        "[[-0.0]]",
        "[[0,-00,00]]",
        "[[1e400,-1e400,1e-400]]",
        "[[18446744073709551615,18446744073709551616,-9223372036854775808]]",
        "[[-9223372036854775809,123456789012345678901234567890]]",
        "[[01]]",
        "[[1.]]",
        "[[-.5]]",
        "[[.5]]",
        "[[1e]]",
        "[[1e+]]",
        "[[1E+2,1e-2,1.5E3]]",
        "[[-]]",
        "[[+1]]",
        "[[0x10]]",
        "[[1,]]",
        "[1,]",
        "[[1],]",
        "[[1]",
        "[[1]]]",
        "[[1 2]]",
        "[[null]]",
        "[null]",
        "[[\"1\"]]",
        "[1]",
        "[[[1]]]",
        "{}",
        "[]",
        "[[]]",
        "[[],[]]",
        "null",
        "true",
        "\"x\"",
    ];
    let seeds = [
        "-0",
        "-00",
        "-1",
        "0",
        "1.0",
        "1e2",
        "18446744073709551615",
        "18446744073709551616",
        "\"7\"",
        "null",
        "true",
        "nul",
        "nullx",
        "[]",
    ];
    let strings = [
        r#""A""#,
        r#""éé""#,
        r#""😀""#,
        r#""\ud83d""#,
        r#""\ude00""#,
        r#""\ud83dx""#,
        r#""\ud83dA""#,
        r#""\ud83d\n""#,
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\u00""#,
        r#""\u00g1""#,
        r#""\x""#,
        r#""\/\b\f\n\r\t\"\\""#,
        "\"raw\ttab and\u{1} control\"",
        "\"é😀\u{2028}\"",
        r#""unterminated"#,
        r#""\"#,
        "1",
        "null",
    ];
    let mut lines: Vec<String> = Vec::new();
    for inputs in inputs {
        lines.push(format!(
            r#"{{"op":"query","session":"s","inputs":{inputs}}}"#
        ));
    }
    for seed in seeds {
        lines.push(format!(r#"{{"op":"hello","session":"s","seed":{seed}}}"#));
        lines.push(format!(r#"{{"op":"hello","budget":{seed},"seed":7}}"#));
    }
    for s in strings {
        lines.push(format!(r#"{{"op":{s}}}"#));
        lines.push(format!(
            r#"{{"op":"hello","session":{s},"victim":{s},"format":{s}}}"#
        ));
        lines.push(format!(r#"{{{s}:"stats","op":"stats"}}"#));
    }
    lines.extend(
        [
            // Duplicate keys: the first wins, later ones must still parse.
            r#"{"op":"a","op":"b"}"#,
            r#"{"op":"a","op":5}"#,
            r#"{"op":5,"op":"a"}"#,
            r#"{"op":"a","seed":1,"seed":"x"}"#,
            r#"{"op":"a","seed":"x","seed":1}"#,
            r#"{"op":"a","session":null,"session":"s"}"#,
            r#"{"op":"a","inputs":[[1]],"inputs":[[2]]}"#,
            r#"{"op":"a","inputs":null,"inputs":[[2]]}"#,
            r#"{"op":"a","inputs":[[1]],"inputs":[[2],]}"#,
            // Unknown keys, with nested values valid and invalid.
            r#"{"op":"a","x":{"y":[1,{"z":null}],"w":"é"},"v":[true,false,-1.5e3]}"#,
            r#"{"x":[[[[{}]]]],"op":"a","y":{"":{"":[]}}}"#,
            r#"{"op":"a","x":[1,]}"#,
            r#"{"op":"a","x":{"y":}}"#,
            r#"{"op":"a","x":{"y":1,}}"#,
            r#"{"op":"a","x":{"y" 1}}"#,
            r#"{"op":"a","x":{1:2}}"#,
            r#"{"op":"a","x":[1}"#,
            r#"{"op":"a","x":{"y":1]}"#,
            r#"{"op":"a","x":tru}"#,
            r#"{"op":"a","x":"\ud800"}"#,
            r#"{"op":"a","x":1e}"#,
            r#"{"op":"a","x":-}"#,
            // Escaped keys name the same fields.
            r#"{"o\u0070":"stats","s\u0065ed":3}"#,
            r#"{"op":"a","o\u0070":"b"}"#,
            // Whitespace everywhere, and the four JSON whitespace bytes
            // only.
            " \t\r\n{ \"op\" : \"query\" , \"session\" :\t\"s\" ,\n\"inputs\" : [ [ 1 , 2.5 ] , [ ] ] , \"seed\" : null } \r\n",
            "{\"op\":\"a\"}\u{a0}",
            "\u{feff}{\"op\":\"a\"}",
            "{\"op\":\"a\"\u{b}}",
            // Trailing garbage.
            r#"{"op":"a"}x"#,
            r#"{"op":"a"} {}"#,
            r#"{"op":"a"},"#,
            r#"{"op":"a"}}"#,
            // Missing or mistyped op, and non-object top levels.
            r#"{}"#,
            r#"{"session":"s"}"#,
            r#"{"op":null}"#,
            r#"{"op":1}"#,
            r#"{"op":"a",}"#,
            r#"{"op" "a"}"#,
            r#"{"op":"a""#,
            r#"{"op":"a","#,
            r#"{"#,
            r#"[]"#,
            r#"[{"op":"a"}]"#,
            r#""op""#,
            "1",
            "-",
            "null",
            "true",
            "",
            "   ",
        ]
        .into_iter()
        .map(str::to_string),
    );
    // Nesting deep enough to matter, shallow enough for the shim's
    // recursive parser.
    lines.push(format!(
        r#"{{"op":"a","x":{}0{}}}"#,
        "[".repeat(200),
        "]".repeat(200)
    ));
    let failures: Vec<String> = lines.iter().filter_map(|l| agree(l).err()).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn undecodable_lines_are_usage_errors_on_an_open_connection() {
    let server =
        Server::start("127.0.0.1:0", VictimRegistry::new(), ServeConfig::default()).unwrap();
    let mut writer = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str::<Response>(&line).unwrap()
    };
    // A bad line, then a blank one (skipped, no reply), then a stats
    // request with a CRLF terminator: the stats reply comes next.
    writer
        .write_all(b"{\"op\":\"stats\"} trailing\n \t\n{\"op\":\"stats\"}\r\n")
        .unwrap();
    let bad = reply();
    assert!(!bad.ok);
    assert_eq!(bad.code.as_deref(), Some("usage"));
    let stats = reply().stats.expect("stats reply");
    let server_scope = stats.get("victims").and_then(|v| v.get("_server")).unwrap();
    let count = |kind: &str, name: &str| server_scope.get(kind).and_then(|c| c.get(name)).cloned();
    assert_eq!(
        count("counters", "serve.reject.usage"),
        Some(serde::Value::U64(1))
    );
    // The bad line was timed; the stats request's own decode is
    // recorded after its snapshot.
    let decodes = count("histograms", "serve.decode_ns").expect("decode histogram");
    assert_eq!(decodes.get("count"), Some(&serde::Value::U64(1)));
    drop(writer);
    server.shutdown();
}

#[test]
fn non_finite_query_inputs_are_usage_errors_that_spend_no_budget() {
    let net = SingleLayerNet::from_weights(
        Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 0.5]]),
        Activation::Identity,
    );
    let mut registry = VictimRegistry::new();
    registry
        .insert("toy", Oracle::new(net, &OracleConfig::ideal(), 7).unwrap())
        .unwrap();
    let server = Server::start("127.0.0.1:0", registry, ServeConfig::default()).unwrap();
    let mut writer = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut exchange = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        serde_json::from_str::<Response>(&reply).unwrap()
    };

    let hello = exchange(
        "{\"op\":\"hello\",\"session\":\"s\",\"victim\":\"toy\",\"seed\":1,\"budget\":4}\n",
    );
    assert!(hello.ok, "{hello:?}");
    let bad = exchange("{\"op\":\"query\",\"session\":\"s\",\"inputs\":[[0.5,0.5],[0.0,1e999]]}\n");
    assert!(!bad.ok);
    assert_eq!(bad.code.as_deref(), Some("usage"));
    let message = bad.error.unwrap_or_default();
    assert!(message.contains("sample 1 element 1"), "{message}");
    // The connection stays open and the session's budget is untouched.
    let good = exchange("{\"op\":\"query\",\"session\":\"s\",\"inputs\":[[0.5,0.5]]}\n");
    assert!(good.ok, "{good:?}");
    let closed = exchange("{\"op\":\"close\",\"session\":\"s\"}\n");
    assert_eq!(closed.status.expect("close status").used, 1);
    drop(writer);
    server.shutdown();
}
