//! The load generator's side of the wire: a keep-alive HTTP/1.1
//! connection and a JSON-lines connection, plus cheap scanners for the
//! few response fields the generator needs. Responses are built by the
//! server with sorted keys, so the fields sit at fixed, findable places.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Http {
    reader: BufReader<TcpStream>,
}

impl Http {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Http> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Http {
            reader: BufReader::new(stream),
        })
    }

    /// POST one JSON-RPC body; returns the response body.
    pub fn call(&mut self, body: &str) -> Result<String, String> {
        let request = format!(
            "POST / HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        );
        let io = |e: std::io::Error| e.to_string();
        self.reader
            .get_ref()
            .write_all(request.as_bytes())
            .map_err(io)?;
        let mut status = String::new();
        self.reader.read_line(&mut status).map_err(io)?;
        if !status.contains(" 200 ") {
            return Err(format!("HTTP status {}", status.trim_end()));
        }
        let mut content_length = None;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line).map_err(io)? == 0 {
                return Err("connection closed in headers".into());
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let len = content_length.ok_or("response without Content-Length")?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body).map_err(io)?;
        String::from_utf8(body).map_err(|_| "response is not UTF-8".into())
    }
}

/// One JSON-lines connection split into its two halves, so one thread
/// can write requests while another reads acks and pushes.
pub struct Lines {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Lines {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Lines> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(200)))?;
        Ok(Lines {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 20, stream),
        })
    }
}

/// A JSON-RPC request body.
pub fn request(id: u64, method: &str, params: &str) -> String {
    format!("{{\"id\":{id},\"jsonrpc\":\"2.0\",\"method\":\"{method}\",\"params\":{params}}}")
}

/// The error object of a response, if it is an error response.
pub fn error_of(body: &str) -> Option<&str> {
    body.starts_with("{\"error\"").then_some(body)
}

/// The `"result"` of a response whose result is a JSON string.
pub fn string_result(body: &str) -> Option<&str> {
    let start = body.find("\"result\":\"")? + 10;
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}

/// The numeric `"id"` of a response.
pub fn id_of(body: &str) -> Option<u64> {
    let start = body.find("\"id\":")? + 5;
    let digits: String = body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The transaction hashes of a `newHeads` push.
pub fn push_hashes(body: &str) -> Vec<&str> {
    let Some(start) = body.find("\"transactions\":[") else {
        return Vec::new();
    };
    let rest = &body[start + 16..];
    let end = rest.find(']').unwrap_or(0);
    rest[..end]
        .split(',')
        .filter_map(|h| h.strip_prefix('"')?.strip_suffix('"'))
        .collect()
}
