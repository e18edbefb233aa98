//! The scripting client behind `nasaic client`: one TCP connection, typed
//! requests in, parsed responses out.

use crate::protocol::{self, Request};
use crate::ServeError;
use nasaic_core::scenario::ConfigValue;
use std::io::BufReader;
use std::net::TcpStream;

/// A connection to a running `nasaic serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to the daemon at `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// Returns an error when the connection cannot be established.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::new(format!("cannot connect to {addr}: {e}")))?;
        // Requests are single small lines awaiting a reply: send each at
        // once rather than letting Nagle's algorithm wait for an ACK.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Send one request and read one response line.
    ///
    /// Not suitable for `submit` with `watch` — that interleaves event
    /// lines before the final response; use [`Client::submit_watch`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, a closed connection, or a
    /// malformed response.
    pub fn request(&mut self, request: &Request) -> Result<ConfigValue, ServeError> {
        protocol::write_line(&mut self.writer, &request.to_value())?;
        self.read_response()
    }

    /// Submit a scenario with `watch: true`: `on_event` is called for each
    /// streamed event line (after the `{"ok":true,"job":N}` ack, which is
    /// also passed to it), and the final `"done": true` response is
    /// returned once the job reaches a terminal state.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, a closed connection, or a
    /// malformed line.
    pub fn submit_watch(
        &mut self,
        scenario: ConfigValue,
        mut on_event: impl FnMut(&ConfigValue),
    ) -> Result<ConfigValue, ServeError> {
        let request = Request::Submit {
            scenario,
            watch: true,
        };
        protocol::write_line(&mut self.writer, &request.to_value())?;
        loop {
            let value = self.read_response()?;
            let done = value.get("done").and_then(ConfigValue::as_bool) == Some(true);
            let rejected = value.get("ok").and_then(ConfigValue::as_bool) == Some(false)
                && value.get("job").is_none();
            if done || rejected {
                return Ok(value);
            }
            on_event(&value);
        }
    }

    fn read_response(&mut self) -> Result<ConfigValue, ServeError> {
        let line = protocol::read_line(&mut self.reader)?
            .ok_or_else(|| ServeError::new("daemon closed the connection"))?;
        Ok(nasaic_core::scenario::value::parse_json(&line)?)
    }
}
