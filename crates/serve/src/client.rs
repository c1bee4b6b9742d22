//! A small blocking client for the campaign service.
//!
//! Used by the `xbar bench serve` driver, the CI smoke test, and the
//! integration tests; real attack tooling can speak the NDJSON protocol
//! directly (see [`crate::protocol`]).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use xbar_core::oracle::QueryRecord;

use crate::protocol::{Request, Response, SessionStatus};
use crate::wire::{write_request, RequestRef};
use crate::{Result, ServeError};

/// A blocking NDJSON client: one request in flight at a time.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The encoded request line, reused across requests.
    line: Vec<u8>,
    /// The response line, reused across requests.
    reply: String,
}

impl Client {
    /// Connects to `addr` (anything implementing `ToSocketAddrs`, e.g.
    /// `"127.0.0.1:7878"`).
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            line: Vec::new(),
            reply: String::new(),
        })
    }

    /// Sends one raw request and reads its response line.
    pub fn request(&mut self, request: &Request) -> Result<Response> {
        self.encode(&RequestRef::of(request));
        self.send()
    }

    /// Encodes `request` as the next line to send.
    fn encode(&mut self, request: &RequestRef<'_>) {
        self.line.clear();
        write_request(request, &mut self.line);
        self.line.push(b'\n');
    }

    /// Sends the encoded line and reads its response line.
    fn send(&mut self) -> Result<Response> {
        self.writer.write_all(&self.line)?;
        self.writer.flush()?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(ServeError::Protocol("server closed the connection".into()));
        }
        Ok(serde_json::from_str(self.reply.trim())?)
    }

    fn expect_ok(response: Response) -> Result<Response> {
        if response.ok {
            Ok(response)
        } else {
            Err(ServeError::Rejected {
                code: response.code.unwrap_or_else(|| "unknown".into()),
                message: response.error.unwrap_or_default(),
            })
        }
    }

    /// Opens (or resumes) a session and returns its authoritative
    /// status — on resume, `status.used` is where the query index
    /// continues.
    pub fn hello(
        &mut self,
        session: &str,
        victim: Option<&str>,
        seed: Option<u64>,
        budget: Option<u64>,
    ) -> Result<SessionStatus> {
        let mut request = Request::new("hello");
        request.session = Some(session.to_string());
        request.victim = victim.map(str::to_string);
        request.seed = seed;
        request.budget = budget;
        let response = Self::expect_ok(self.request(&request)?)?;
        response
            .status
            .ok_or_else(|| ServeError::Protocol("hello response missing status".into()))
    }

    /// Issues a batch of queries. Returns the records in input order,
    /// indices continuing the session's stream. Dense rows travel as
    /// exact f64 bits, sparse ones as decimal text (see [`crate::wire`]).
    pub fn query(&mut self, session: &str, inputs: &[Vec<f64>]) -> Result<Vec<QueryRecord>> {
        self.encode(&RequestRef::query(session, inputs));
        Self::expect_ok(self.send()?)?
            .records
            .ok_or_else(|| ServeError::Protocol("query response missing records".into()))
    }

    /// Detaches the session, leaving it resumable.
    pub fn close(&mut self, session: &str) -> Result<SessionStatus> {
        let mut request = Request::new("close");
        request.session = Some(session.to_string());
        let response = Self::expect_ok(self.request(&request)?)?;
        response
            .status
            .ok_or_else(|| ServeError::Protocol("close response missing status".into()))
    }

    /// Scrapes the live metrics as a JSON snapshot. Read-only:
    /// consumes no budget and is answered even while the server drains
    /// or its session table is full.
    pub fn stats(&mut self) -> Result<serde::Value> {
        let response = Self::expect_ok(self.request(&Request::new("stats"))?)?;
        response
            .stats
            .ok_or_else(|| ServeError::Protocol("stats response missing stats".into()))
    }

    /// Scrapes the live metrics in Prometheus text exposition
    /// format.
    pub fn stats_prometheus(&mut self) -> Result<String> {
        let mut request = Request::new("stats");
        request.format = Some("prom".to_string());
        let response = Self::expect_ok(self.request(&request)?)?;
        response
            .text
            .ok_or_else(|| ServeError::Protocol("stats response missing text".into()))
    }

    /// Asks the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<()> {
        Self::expect_ok(self.request(&Request::new("shutdown"))?)?;
        Ok(())
    }
}
