//! Channel-backed `Read`/`Write`, so `serve::serve` runs in-process
//! over the same jsonl byte streams `repro serve` speaks on
//! stdin/stdout.

use std::io::{Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};

/// `Read` over a channel of lines; each received line gets its `\n`
/// back. A dropped sender is EOF.
pub struct LineReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

/// `Write` that forwards every complete line (without its `\n`) down a
/// channel; a partial line waits for its terminator.
pub struct LineWriter {
    tx: Sender<String>,
    buf: Vec<u8>,
}

/// A client→server pipe: the sender feeds lines to the reader.
pub fn reader() -> (Sender<String>, LineReader) {
    let (tx, rx) = channel();
    (
        tx,
        LineReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        },
    )
}

/// A server→client pipe: lines written arrive on the receiver.
pub fn writer() -> (LineWriter, Receiver<String>) {
    let (tx, rx) = channel();
    (
        LineWriter {
            tx,
            buf: Vec::new(),
        },
        rx,
    )
}

impl Read for LineReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for LineWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let rest = self.buf.split_off(nl + 1);
            self.buf.pop();
            let line = String::from_utf8(std::mem::replace(&mut self.buf, rest))
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            // A client that has gone away is not the server's error.
            let _ = self.tx.send(line);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    #[test]
    fn reader_restores_newlines_and_ends_at_sender_drop() {
        let (tx, r) = reader();
        tx.send("first".into()).unwrap();
        tx.send("second line".into()).unwrap();
        drop(tx);
        let lines: Vec<String> = std::io::BufReader::new(r)
            .lines()
            .map(Result::unwrap)
            .collect();
        assert_eq!(lines, ["first", "second line"]);
    }

    #[test]
    fn reader_serves_a_line_across_short_reads() {
        let (tx, mut r) = reader();
        tx.send("abcdef".into()).unwrap();
        drop(tx);
        let mut got = Vec::new();
        let mut small = [0u8; 4];
        loop {
            let n = r.read(&mut small).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&small[..n]);
        }
        assert_eq!(got, b"abcdef\n");
    }

    #[test]
    fn writer_splits_on_newlines_and_holds_partial_lines() {
        let (mut w, rx) = writer();
        w.write_all(b"one\ntw").unwrap();
        assert_eq!(rx.try_recv().unwrap(), "one");
        assert!(rx.try_recv().is_err(), "partial line must wait");
        w.write_all(b"o\n\nthree\n").unwrap();
        let rest: Vec<String> = rx.try_iter().collect();
        assert_eq!(rest, ["two", "", "three"]);
    }

    #[test]
    fn writer_survives_a_dropped_receiver() {
        let (mut w, rx) = writer();
        drop(rx);
        w.write_all(b"nobody listens\n").unwrap();
    }
}
