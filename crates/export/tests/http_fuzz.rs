//! Malformed-input robustness for the hand-rolled HTTP parser: whatever
//! bytes arrive on the socket, the server must answer a well-formed 4xx
//! (or close cleanly), never panic or wedge, and keep serving `/metrics`
//! afterwards.
//!
//! Every client half-closes its write side after sending, so the server
//! sees EOF immediately instead of waiting out its read timeout — the
//! property runs hundreds of cases in a few seconds.
//!
//! Each property runs on [`CASES`] cases through the seeded runner in the
//! workspace's `tests/support/cases.rs`; a failure names the case's seed.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use cases::check;
use noodle_export::ExportServer;
use noodle_observe::{MonitorConfig, StreamingMonitors};
use rand::rngs::StdRng;
use rand::RngExt;

const CASES: u64 = 256;

/// Sends raw bytes as one "request", half-closes, and returns whatever
/// the server answered (empty on a clean close with no response).
fn exchange(addr: std::net::SocketAddr, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("server accepts connections");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    // The server may answer 400 and close before consuming a large
    // payload; a write error then is the clean-close outcome, not a bug.
    let _ = stream.write_all(payload);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    response
}

/// A response is acceptable iff it is absent (clean close) or a complete
/// HTTP/1.1 status line with a status the server legitimately emits.
fn assert_well_formed(payload: &[u8], response: &[u8]) {
    if response.is_empty() {
        return;
    }
    let text = String::from_utf8_lossy(response);
    let status_line = text.lines().next().unwrap_or_default();
    assert!(
        status_line.starts_with("HTTP/1.1 "),
        "garbage {payload:?} produced a non-HTTP response: {status_line:?}"
    );
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line {status_line:?} for {payload:?}"));
    assert!(
        matches!(status, 200 | 400 | 404 | 405 | 503),
        "garbage {payload:?} produced unexpected status {status}"
    );
    assert!(text.contains("\r\n\r\n"), "response to {payload:?} has no header terminator");
}

/// The server must still answer a well-formed scrape after abuse.
fn assert_still_serving(addr: std::net::SocketAddr) {
    let response = exchange(addr, b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "server wedged after malformed input: {text}");
}

/// `len` characters drawn uniformly from `alphabet`.
fn draw(rng: &mut StdRng, alphabet: &[u8], len: usize) -> String {
    (0..len).map(|_| char::from(alphabet[rng.random_range(0..alphabet.len())])).collect()
}

/// Arbitrary bytes — including NULs, invalid UTF-8 and embedded
/// newlines — never panic the server or elicit a malformed response.
#[test]
fn arbitrary_bytes_never_break_the_server() {
    let server = shared_server();
    check(CASES, |rng| {
        let len = rng.random_range(0..2048);
        let payload: Vec<u8> = (0..len).map(|_| rng.random()).collect();
        let response = exchange(server.addr(), &payload);
        assert_well_formed(&payload, &response);
    });
}

/// Structured-but-wrong requests: random method-ish and path-ish
/// tokens with assorted line endings still yield 4xx or a valid route.
#[test]
fn bogus_methods_and_paths_get_clean_answers() {
    let letters: Vec<u8> = (b'A'..=b'Z').chain(b'a'..=b'z').collect();
    let printable: Vec<u8> = (b' '..=b'~').collect();
    let server = shared_server();
    check(CASES, |rng| {
        let method_len = rng.random_range(1..=12);
        let method = draw(rng, &letters, method_len);
        let path_len = rng.random_range(0..=64);
        let path = format!("/{}", draw(rng, &printable, path_len));
        let terminator = ["\r\n\r\n", "\n\n", "\r\n", ""][rng.random_range(0..4)];
        let payload = format!("{method} {path} HTTP/1.1{terminator}");
        let response = exchange(server.addr(), payload.as_bytes());
        assert_well_formed(payload.as_bytes(), &response);
    });
}

/// The deterministic rogues' gallery from the issue: oversized request
/// lines, missing CRLF terminators, partial requests, bogus methods and
/// absurd Content-Length declarations.
#[test]
fn canonical_malformed_requests() {
    let server = shared_server();
    let addr = server.addr();
    let oversized = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(32 * 1024));
    let cases: Vec<(&str, Vec<u8>, &[u16])> = vec![
        ("empty request", Vec::new(), &[400]),
        ("binary garbage", b"\xff\xfe\x00\x01\x02".to_vec(), &[400]),
        ("bare newline", b"\n".to_vec(), &[400]),
        // Truncated at the head cap: the surviving prefix still tokenizes
        // as a GET with an unknown (cut-off) path.
        ("oversized request line", oversized.into_bytes(), &[400, 404]),
        ("partial request line", b"GET /metr".to_vec(), &[404]),
        ("missing CRLF terminator", b"GET /nope HTTP/1.1\n".to_vec(), &[404]),
        ("bogus method", b"BREW /metrics HTTP/1.1\r\n\r\n".to_vec(), &[405]),
        ("method only", b"GET\r\n\r\n".to_vec(), &[400]),
        (
            "huge content-length, no body",
            b"POST /reload HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n".to_vec(),
            &[405],
        ),
        (
            "content-length smaller than body",
            b"POST /x HTTP/1.1\r\nContent-Length: 1\r\n\r\nabcdef".to_vec(),
            &[405],
        ),
    ];
    for (name, payload, expected) in cases {
        let response = exchange(addr, &payload);
        assert_well_formed(&payload, &response);
        let text = String::from_utf8_lossy(&response);
        let status: u16 = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{name}: no status in {text:?}"));
        assert!(expected.contains(&status), "{name}: expected one of {expected:?}, got {status}");
        assert_still_serving(addr);
    }
}

/// A client that connects and vanishes without sending anything must not
/// take the accept loop down with it.
#[test]
fn immediate_disconnects_are_harmless() {
    let server = shared_server();
    for _ in 0..16 {
        let stream = TcpStream::connect(server.addr()).expect("server accepts connections");
        drop(stream);
    }
    assert_still_serving(server.addr());
}

/// One server shared by every test and property case: abuse accumulates
/// on a single accept loop, which is exactly the production shape.
fn shared_server() -> &'static ExportServer {
    use std::sync::OnceLock;
    static SERVER: OnceLock<ExportServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        ExportServer::start("127.0.0.1:0", StreamingMonitors::new(MonitorConfig::default()), None)
            .expect("bind ephemeral port")
    })
}
