//! The one wire client: a persistent [`Client`] connection and a
//! one-shot [`request`], both over [`protocol::write_request`] /
//! [`protocol::read_response`]. The load driver, `swim-top` and the
//! server's own tests all talk to the server through it.
//!
//! Connecting does not retry: a refused connect is the caller's to
//! retry (the load driver does, under a burst; `swim-top` fails fast
//! against a closed port).

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::{self, Response};

/// How long a read may wait for the server before it fails.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Open a connection ready for the line protocol: nodelay, because a
/// request is one small write and without it the measured latency is
/// mostly Nagle/delayed-ACK stall; and a [`READ_TIMEOUT`], so a wedged
/// server fails a read instead of hanging it.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// A persistent connection: requests sent through it share one
/// admission permit, in order.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// [`connect`] to `addr` and pair the stream with a reader.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Send one request line and read its response.
    pub fn send(&mut self, line: &str) -> std::io::Result<Response> {
        protocol::write_request(&mut self.writer, line)?;
        protocol::read_response(&mut self.reader)
    }
}

/// One request over a fresh connection.
pub fn request(addr: SocketAddr, line: &str) -> std::io::Result<Response> {
    Client::connect(addr)?.send(line)
}
