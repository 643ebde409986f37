//! A minimal blocking HTTP/1.1 client — just enough for the
//! integration tests, `serve_bench`, and the CI gate to talk to a
//! local `caf-serve` without external dependencies.
//!
//! Each call opens one connection, sends one request, reads exactly one
//! response framed by its `Content-Length`, and drops the socket. It
//! never waits for the server to close, so it works the same against a
//! kept-alive connection as against a closed one.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends `GET path` to `addr` and returns `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), String> {
    request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: caf-serve\r\n\r\n"),
    )
}

/// Response headers as (lowercased name, value) pairs.
pub type Headers = Vec<(String, String)>;

/// Like [`get`], but also returns the response headers so callers can
/// inspect `ETag`, `Retry-After`, etc.
pub fn get_full(addr: SocketAddr, path: &str) -> Result<(u16, Headers, Vec<u8>), String> {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: caf-serve\r\n\r\n"),
    )
}

/// Sends a raw request (head, plus any body) and returns
/// `(status, body)`.
pub fn request(addr: SocketAddr, head: &str) -> Result<(u16, Vec<u8>), String> {
    exchange(addr, head).map(|(status, _, body)| (status, body))
}

fn exchange(addr: SocketAddr, raw: &str) -> Result<(u16, Headers, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    read_response(&mut BufReader::new(stream))
}

/// Reads one response from `reader`: the status line, the headers and
/// exactly `Content-Length` body bytes. Bytes after the body stay in
/// the reader (the next pipelined response). A response without
/// `Content-Length`, or one cut short, is an `Err`.
pub fn read_response(reader: &mut impl BufRead) -> Result<(u16, Headers, Vec<u8>), String> {
    let mut line = String::new();
    let mut next_line = |line: &mut String| -> Result<(), String> {
        line.clear();
        match reader.read_line(line) {
            Ok(0) => Err("read: connection closed inside a response head".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    };
    next_line(&mut line)?;
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line: {:?}", line.trim_end()))?;
    let mut headers = Headers::new();
    loop {
        next_line(&mut line)?;
        let header = line.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .ok_or_else(|| "response without Content-Length".to_string())?
        .1
        .parse::<usize>()
        .map_err(|e| format!("invalid Content-Length: {e}"))?;
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
        read_response(&mut &raw[..]).map(|(status, _, body)| (status, body))
    }

    #[test]
    fn parses_a_closed_connection_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
        let (status, body) = parse(raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"abc");
        assert!(parse(b"garbage").is_err());

        // Framing is by Content-Length: trailing bytes (a pipelined
        // response) are not part of the body and stay unread.
        let mut two: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let (status, headers, body) = read_response(&mut two).unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"abc"[..]));
        assert_eq!(
            headers,
            vec![("content-length".to_string(), "3".to_string())]
        );
        assert_eq!(read_response(&mut two).unwrap().0, 404);
        assert!(two.is_empty());

        // No Content-Length is an error, never a read to EOF; so is a
        // body cut short.
        let err = parse(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nabc").unwrap_err();
        assert!(err.contains("Content-Length"), "{err}");
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n").is_err());
    }
}
