//! The TCP front end: newline-delimited JSON over a socket.
//!
//! Each accepted connection gets its own thread reading request lines and
//! writing reply lines (framed by the rules in [`crate::frame`]); all
//! protocol work happens in [`Server::handle_line`], so TCP and the
//! in-process client share one code path.

use crate::frame::{self, Frame, MAX_REQUEST_BYTES};
use crate::protocol::err;
use crate::session::Server;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A listening TCP endpoint over a [`Server`].
pub struct TcpServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(server: Arc<Server>, addr: &str) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let server = Arc::clone(&server);
                std::thread::spawn(move || connection_loop(&server, stream));
            }
        });
        Ok(TcpServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn connection_loop(server: &Server, stream: TcpStream) {
    let Ok((mut reader, mut writer)) = frame::split(stream) else {
        return;
    };
    let (mut line, mut out) = (String::new(), Vec::new());
    loop {
        match frame::read_frame(&mut reader, &mut line, MAX_REQUEST_BYTES) {
            Ok(Frame::Line) if line.trim().is_empty() => continue,
            Ok(Frame::Line) => {
                let reply = server.handle_line(&line);
                if frame::write_frame(&mut writer, &mut out, &reply).is_err() {
                    return;
                }
            }
            Ok(Frame::TooLong) => {
                let reply = err("request line too long").to_string();
                let _ = frame::write_frame(&mut writer, &mut out, &reply);
                // Closing with input unread resets the connection, and the
                // reset can overtake the reply: stop sending, then read
                // the rest of what the peer has to say into nothing.
                let _ = writer.shutdown(Shutdown::Write);
                let _ = std::io::copy(&mut reader, &mut std::io::sink());
                return;
            }
            Ok(Frame::Eof) | Err(_) => return,
        }
    }
}
