// ccp-lint-fixture: crates/served/src/fixture_r8.rs
//! R8 `no-unbounded-reads`: a served file that handles a
//! `TcpStream` and reads from it without ever bounding the read (no
//! `set_read_timeout`, no `set_nonblocking`) is denied at every read
//! call — a peer that stalls mid-frame would hang the thread forever.
//! The rule is file-granular, so the bounded counterpart (one
//! `set_read_timeout` anywhere in live code) is covered by unit tests
//! rather than a fixture: adding it here would unbound this file.

use std::io::Read;
use std::net::TcpStream;

pub fn pump(mut stream: TcpStream) {
    let mut buf = [0u8; 4096];
    let _ = stream.read(&mut buf);
    let mut frame = [0u8; 16];
    let _ = stream.read_exact(&mut frame);
}

#[cfg(test)]
mod tests {
    // Unbounded reads in test code are exempt: tests own both peers.
    fn t(mut s: super::TcpStream) {
        use std::io::Read;
        let mut b = [0u8; 4];
        let _ = s.read(&mut b);
    }
}
