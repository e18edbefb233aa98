//! The wire protocol of `nasaic serve`: line-delimited JSON over TCP.
//!
//! Every request and response is one JSON object on one line (`\n`
//! terminated), serialized through the same hand-rolled
//! [`ConfigValue`] JSON codec the scenario configs use.  Requests carry a
//! `cmd` discriminator; responses always carry `ok` (`true`/`false`, with
//! an `error` message when `false`).  A `submit` with `"watch": true`
//! additionally streams one line per incumbent improvement before the
//! final `"done": true` response — the model-driven `show <leaf>` shape:
//! the daemon's live state is exactly the search's observer event stream.
//!
//! ```text
//! -> {"cmd":"ping"}
//! <- {"ok":true,"pong":true,"protocol":1}
//! -> {"cmd":"submit","watch":true,"scenario":{...}}
//! <- {"ok":true,"job":3,"state":"queued"}
//! <- {"job":3,"event":"new_incumbent","episode":0,...}
//! <- {"ok":true,"job":3,"done":true,"state":"finished","report":{...}}
//! -> {"cmd":"show","what":"jobs"}
//! <- {"ok":true,"jobs":[{"job":3,"scenario":"w1","state":"finished",...}]}
//! ```

use nasaic_core::scenario::{ConfigError, ConfigValue};
use std::io::{BufRead, Read, Write};

/// Protocol revision carried in `ping` responses; bumped on breaking wire
/// changes.
pub const PROTOCOL_VERSION: i64 = 1;

/// One client request, the typed form of a `{"cmd": ...}` line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Submit a scenario (the full PR 2 config value, already resolved
    /// client-side) as a job; `watch` streams incumbent events and blocks
    /// the reply until the job finishes.
    Submit {
        /// The scenario config value (as produced by `Scenario::to_value`).
        scenario: ConfigValue,
        /// Stream events and the final report instead of just the job id.
        watch: bool,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job id to cancel.
        job: u64,
    },
    /// List all jobs the daemon knows about.
    ShowJobs,
    /// Per-engine cache statistics (hits, misses, entries, evictions,
    /// capacities).
    ShowCache,
    /// The latest incumbent of one job, if any.
    ShowIncumbent {
        /// The job id to query.
        job: u64,
    },
    /// A snapshot of the daemon's telemetry registry (counters, gauges,
    /// histogram quantiles).
    ShowMetrics,
    /// Stop accepting work, finish running jobs, persist caches and exit.
    Shutdown,
}

impl Request {
    /// Serialize to the wire value.
    pub fn to_value(&self) -> ConfigValue {
        let mut root = ConfigValue::table();
        match self {
            Request::Ping => root.insert("cmd", ConfigValue::Str("ping".into())),
            Request::Submit { scenario, watch } => {
                root.insert("cmd", ConfigValue::Str("submit".into()));
                root.insert("scenario", scenario.clone());
                root.insert("watch", ConfigValue::Bool(*watch));
            }
            Request::Cancel { job } => {
                root.insert("cmd", ConfigValue::Str("cancel".into()));
                root.insert("job", ConfigValue::Integer(*job as i64));
            }
            Request::ShowJobs => {
                root.insert("cmd", ConfigValue::Str("show".into()));
                root.insert("what", ConfigValue::Str("jobs".into()));
            }
            Request::ShowCache => {
                root.insert("cmd", ConfigValue::Str("show".into()));
                root.insert("what", ConfigValue::Str("cache".into()));
            }
            Request::ShowIncumbent { job } => {
                root.insert("cmd", ConfigValue::Str("show".into()));
                root.insert("what", ConfigValue::Str("incumbent".into()));
                root.insert("job", ConfigValue::Integer(*job as i64));
            }
            Request::ShowMetrics => {
                root.insert("cmd", ConfigValue::Str("show".into()));
                root.insert("what", ConfigValue::Str("metrics".into()));
            }
            Request::Shutdown => root.insert("cmd", ConfigValue::Str("shutdown".into())),
        }
        root
    }

    /// Parse the wire value back into a typed request.
    ///
    /// # Errors
    ///
    /// Returns a schema error for a missing/unknown `cmd`, a missing
    /// operand (`job`, `scenario`, `what`) or a field of the wrong type
    /// (a `watch` that is not a boolean, a negative `job`).
    pub fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        let fields = value.fields("request")?;
        match fields.str("cmd")? {
            "ping" => Ok(Request::Ping),
            "submit" => Ok(Request::Submit {
                scenario: fields.value("scenario")?.clone(),
                watch: fields.opt_bool("watch")?.unwrap_or(false),
            }),
            "cancel" => Ok(Request::Cancel {
                job: fields.uint("job")?,
            }),
            "show" => match fields.str("what")? {
                "jobs" => Ok(Request::ShowJobs),
                "cache" => Ok(Request::ShowCache),
                "incumbent" => Ok(Request::ShowIncumbent {
                    job: fields.uint("job")?,
                }),
                "metrics" => Ok(Request::ShowMetrics),
                other => Err(fields.invalid(
                    "what",
                    format_args!(
                        "names an unknown show leaf `{other}` (jobs, cache, incumbent, metrics)"
                    ),
                )),
            },
            "shutdown" => Ok(Request::Shutdown),
            other => Err(fields.invalid(
                "cmd",
                format_args!(
                    "names an unknown cmd `{other}` (ping, submit, cancel, show, shutdown)"
                ),
            )),
        }
    }

    /// Parse one wire line.
    ///
    /// # Errors
    ///
    /// Returns a schema error for invalid JSON or an invalid request.
    pub fn parse_line(line: &str) -> Result<Self, ConfigError> {
        Self::from_value(&nasaic_core::scenario::value::parse_json(line)?)
    }
}

/// A successful response skeleton: `{"ok": true}`, extended by the caller.
pub fn ok_response() -> ConfigValue {
    let mut root = ConfigValue::table();
    root.insert("ok", ConfigValue::Bool(true));
    root
}

/// An error response: `{"ok": false, "error": message}`.
pub fn error_response(message: impl Into<String>) -> ConfigValue {
    let mut root = ConfigValue::table();
    root.insert("ok", ConfigValue::Bool(false));
    root.insert("error", ConfigValue::Str(message.into()));
    root
}

/// Write one value as a compact single JSON line and flush, so the peer
/// sees it immediately (the daemon streams events as they happen).
///
/// The line and its terminator go out in one `write_all`: written
/// separately, the lone newline is a second small segment that Nagle's
/// algorithm holds back until the peer's delayed ACK, stalling every
/// message by tens of milliseconds.  Both ends also set `TCP_NODELAY`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_line(writer: &mut impl Write, value: &ConfigValue) -> std::io::Result<()> {
    let mut line = nasaic_core::scenario::value::to_json_compact(value);
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// The longest request line the daemon reads, in bytes (1 MiB).  A
/// 1000-layer generated scenario submits as a ~3.3 KB line.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Read one line (without the terminator); `None` at end of stream.
///
/// # Errors
///
/// Propagates the underlying I/O error; a line that is not UTF-8 is an
/// `InvalidData` error.
pub fn read_line(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    read_line_capped(reader, usize::MAX)
}

/// Read one line of at most `max` bytes (without the terminator); `None`
/// at end of stream.
///
/// # Errors
///
/// Propagates the underlying I/O error.  A longer line is an
/// `InvalidData` error naming the cap, after reading at most `max + 1` of
/// its bytes (the rest stays unread); so is a line that is not UTF-8.
pub fn read_line_capped(reader: &mut impl BufRead, max: usize) -> std::io::Result<Option<String>> {
    let mut line = Vec::new();
    let limit = u64::try_from(max).unwrap_or(u64::MAX).saturating_add(1);
    let read = reader.by_ref().take(limit).read_until(b'\n', &mut line)?;
    if read == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if read > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request line exceeds the {max}-byte limit"),
        ));
    }
    while line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map(Some).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "line is not valid UTF-8")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasaic_core::scenario::registry;
    use nasaic_core::scenario::value::{parse_json, to_json_compact};

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let scenario = registry::get("w1").expect("built-in").to_value();
        let requests = vec![
            Request::Ping,
            Request::Submit {
                scenario,
                watch: true,
            },
            Request::Cancel { job: 7 },
            Request::ShowJobs,
            Request::ShowCache,
            Request::ShowIncumbent { job: 3 },
            Request::ShowMetrics,
            Request::Shutdown,
        ];
        for request in requests {
            let line = to_json_compact(&request.to_value());
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::parse_line(&line).expect("parses"), request);
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_a_reason() {
        for (line, needle) in [
            (r#"{"nope":1}"#, "request.cmd is missing"),
            (r#"{"cmd":"fly"}"#, "unknown cmd"),
            (r#"{"cmd":"cancel"}"#, "request.job is missing"),
            (
                r#"{"cmd":"cancel","job":-4}"#,
                "request.job must be a non-negative integer, got -4",
            ),
            (r#"{"cmd":"show","what":"weather"}"#, "unknown show leaf"),
            (r#"{"cmd":"submit"}"#, "request.scenario is missing"),
            (
                r#"{"cmd":"submit","scenario":{},"watch":1}"#,
                "request.watch must be a boolean, got 1",
            ),
            (
                r#"{"cmd":"submit","scenario":{},"watch":"yes"}"#,
                r#"request.watch must be a boolean, got "yes""#,
            ),
            (r#"[1]"#, "request must be a table, got an array"),
        ] {
            let err = Request::parse_line(line).expect_err(line).to_string();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn responses_carry_the_ok_flag() {
        assert_eq!(ok_response().get("ok").unwrap().as_bool(), Some(true));
        let error = error_response("queue full");
        assert_eq!(error.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(error.get("error").unwrap().as_str(), Some("queue full"));
    }

    #[test]
    fn each_line_goes_out_in_a_single_write() {
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        write_line(&mut writer, &ok_response()).unwrap();
        assert_eq!(writer.writes, 1);
        assert_eq!(writer.bytes, b"{\"ok\":true}\n");
    }

    #[test]
    fn line_framing_round_trips() {
        let mut buffer = Vec::new();
        write_line(&mut buffer, &ok_response()).unwrap();
        write_line(&mut buffer, &error_response("x")).unwrap();
        let mut reader = std::io::BufReader::new(buffer.as_slice());
        let first = read_line(&mut reader).unwrap().expect("first line");
        assert_eq!(parse_json(&first).unwrap(), ok_response());
        let second = read_line(&mut reader).unwrap().expect("second line");
        assert_eq!(parse_json(&second).unwrap(), error_response("x"));
        assert_eq!(read_line(&mut reader).unwrap(), None);
    }
}
