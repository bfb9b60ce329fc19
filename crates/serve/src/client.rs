//! A line-oriented client for the daemon protocol, shared by
//! `flexvecc client`, the `flexbench` load harness, and the
//! integration tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::json::{self, Json};

/// Connect attempts made by [`Client::connect_with_retry`].
pub const CONNECT_ATTEMPTS: u32 = 3;

/// First retry backoff; doubles per attempt up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(100);

/// Ceiling on the exponential connect backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// One connection to a running daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to the daemon's request port.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// [`Client::connect`] retrying transient connect failures
    /// (refused/reset/timed-out — e.g. a daemon still binding its
    /// listener) with capped exponential backoff: [`CONNECT_ATTEMPTS`]
    /// attempts, 100 ms doubling to a 1 s cap. Non-transient errors
    /// (unreachable host, bad address) fail immediately.
    ///
    /// # Errors
    ///
    /// The last connect error once the attempts are exhausted.
    pub fn connect_with_retry(addr: &str, attempts: u32) -> std::io::Result<Client> {
        let attempts = attempts.max(1);
        let mut delay = BACKOFF_START;
        let mut attempt = 0;
        loop {
            attempt += 1;
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if attempt < attempts && is_transient_connect_error(&e) => {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(BACKOFF_CAP);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one raw request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a cleanly closed connection surfaces
    /// as `UnexpectedEof`.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(response.trim_end().to_owned())
    }

    /// Sends a request value and parses the response.
    ///
    /// # Errors
    ///
    /// I/O failures and unparsable response lines, rendered as text.
    pub fn request(&mut self, request: &Json) -> Result<Json, String> {
        let line = self
            .request_raw(&request.to_string())
            .map_err(|e| format!("request failed: {e}"))?;
        json::parse(&line).map_err(|e| format!("unparsable response `{line}`: {e}"))
    }
}

/// Whether a connect error is worth retrying: the daemon may simply
/// not be listening *yet* (refused), or the previous instance is going
/// away (reset), or the SYN was dropped (timed out).
fn is_transient_connect_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

/// Fetches the daemon's `/metrics` page (a one-shot HTTP GET),
/// returning the body.
///
/// # Errors
///
/// Connect/read failures and non-200 responses, rendered as text.
pub fn fetch_metrics(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response: {response:.120}"))?;
    if !head.starts_with("HTTP/1.0 200") && !head.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "non-200 /metrics response: {}",
            head.lines().next().unwrap_or(head)
        ));
    }
    Ok(body.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn retry_gives_up_after_capped_backoff() {
        // Reserve a port, then close the listener so connects refuse.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let t0 = Instant::now();
        let err = Client::connect_with_retry(&addr, CONNECT_ATTEMPTS).unwrap_err();
        assert!(is_transient_connect_error(&err), "{err}");
        // Two backoffs (100 ms + 200 ms) must have been taken.
        assert!(
            t0.elapsed() >= Duration::from_millis(300),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn retry_connects_once_the_daemon_appears() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let bind_to = addr.clone();
        let late_listener = std::thread::spawn(move || {
            // Bind between the first (refused) attempt and the retry.
            std::thread::sleep(Duration::from_millis(50));
            let listener = TcpListener::bind(&bind_to).unwrap();
            let _conn = listener.accept().unwrap();
        });
        let client = Client::connect_with_retry(&addr, CONNECT_ATTEMPTS);
        assert!(client.is_ok(), "{:?}", client.err());
        drop(client);
        late_listener.join().unwrap();
    }
}
