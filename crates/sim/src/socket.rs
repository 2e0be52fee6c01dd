//! The app-facing socket seam: what a workload driver does to a
//! connection, once, for both stacks.
//!
//! [`crate::Endpoint`] is the side of a host the event loop drives;
//! this is the side an application holds. [`Socket`] is the per-
//! connection operation list `TcpConnection` and `MptcpConnection`
//! already share by name; [`SocketHost`] resolves a connection id on any
//! of the four hosts and [`Accept`] adds the server's accept queue.
//! Opening is *not* here: a TCP client binds its interface at
//! construction and an MPTCP client picks a primary per connection, so
//! callers open with the host's own method and hand the id on.

use crate::endpoint::{Endpoint, MptcpClientHost, MptcpServerHost, TcpClientHost, TcpServerHost};
use bytes::Bytes;
use mpwifi_mptcp::MptcpConnection;
use mpwifi_simcore::Time;
use mpwifi_tcp::conn::TcpConnection;
use mpwifi_tcp::stack::SocketId;

/// One connection as its application sees it.
pub trait Socket {
    /// Queue stream data.
    fn send(&mut self, data: Bytes);
    /// Close our direction once everything queued is out.
    fn close(&mut self, now: Time);
    /// Drain the in-order chunks delivered since the last call.
    fn take_delivered(&mut self) -> Vec<Bytes>;
    /// Read and drop the chunks delivered since the last call.
    fn discard_delivered(&mut self);
    /// Cumulative in-order bytes delivered to the application.
    fn delivered_bytes(&self) -> u64;
    /// Handshake completion time (the primary subflow's, for MPTCP).
    fn established_at(&self) -> Option<Time>;
    /// Both directions (every subflow, for MPTCP) fully shut down.
    fn is_closed(&self) -> bool;
    /// `(local, remote)` ports of the connection's first flow: how a
    /// server-side application pairs an accepted socket with the client
    /// that opened it. `None` while an MPTCP connection has no subflow.
    fn ports(&self) -> Option<(u16, u16)>;

    /// The app reads its socket: consume what arrived, return the
    /// cumulative count.
    fn read(&mut self) -> u64 {
        self.discard_delivered();
        self.delivered_bytes()
    }
}

impl Socket for TcpConnection {
    fn send(&mut self, data: Bytes) {
        TcpConnection::send(self, data);
    }
    fn close(&mut self, now: Time) {
        TcpConnection::close(self, now);
    }
    fn take_delivered(&mut self) -> Vec<Bytes> {
        TcpConnection::take_delivered(self)
    }
    fn discard_delivered(&mut self) {
        TcpConnection::discard_delivered(self);
    }
    fn delivered_bytes(&self) -> u64 {
        TcpConnection::delivered_bytes(self)
    }
    fn established_at(&self) -> Option<Time> {
        self.stats().established_at
    }
    fn is_closed(&self) -> bool {
        TcpConnection::is_closed(self)
    }
    fn ports(&self) -> Option<(u16, u16)> {
        Some((self.local_port(), self.remote_port()))
    }
}

impl Socket for MptcpConnection {
    fn send(&mut self, data: Bytes) {
        MptcpConnection::send(self, data);
    }
    fn close(&mut self, now: Time) {
        MptcpConnection::close(self, now);
    }
    fn take_delivered(&mut self) -> Vec<Bytes> {
        MptcpConnection::take_delivered(self)
    }
    fn discard_delivered(&mut self) {
        MptcpConnection::discard_delivered(self);
    }
    fn delivered_bytes(&self) -> u64 {
        MptcpConnection::delivered_bytes(self)
    }
    fn established_at(&self) -> Option<Time> {
        MptcpConnection::established_at(self)
    }
    fn is_closed(&self) -> bool {
        MptcpConnection::is_closed(self)
    }
    fn ports(&self) -> Option<(u16, u16)> {
        self.primary_local_port().zip(self.primary_remote_port())
    }
}

/// A host whose connections an application can reach by id.
pub trait SocketHost: Endpoint {
    /// Connection id, as the host's own `connect`/`open` returns it.
    type Id: Copy;
    /// The connection type behind an id.
    type Conn: Socket;

    /// The connection `id` names. Ids come from the host's open call or
    /// from [`Accept::take_accepted`], and a host never drops a connection,
    /// so an unknown id is a caller bug and panics.
    fn socket(&mut self, id: Self::Id) -> &mut Self::Conn;
}

/// A server host: connections appear as clients' SYNs arrive.
pub trait Accept: SocketHost {
    /// Connections created since the last call (none allocates nothing).
    fn take_accepted(&mut self) -> Vec<Self::Id>;
}

impl SocketHost for TcpClientHost {
    type Id = SocketId;
    type Conn = TcpConnection;
    fn socket(&mut self, id: SocketId) -> &mut TcpConnection {
        self.stack.conn_mut(id).expect("unknown TCP socket id")
    }
}

impl SocketHost for TcpServerHost {
    type Id = SocketId;
    type Conn = TcpConnection;
    fn socket(&mut self, id: SocketId) -> &mut TcpConnection {
        self.stack.conn_mut(id).expect("unknown TCP socket id")
    }
}

impl Accept for TcpServerHost {
    fn take_accepted(&mut self) -> Vec<SocketId> {
        self.stack.take_accepted()
    }
}

impl SocketHost for MptcpClientHost {
    type Id = usize;
    type Conn = MptcpConnection;
    fn socket(&mut self, id: usize) -> &mut MptcpConnection {
        self.conn_mut(id)
    }
}

impl SocketHost for MptcpServerHost {
    type Id = usize;
    type Conn = MptcpConnection;
    fn socket(&mut self, id: usize) -> &mut MptcpConnection {
        self.conn_mut(id)
    }
}

impl Accept for MptcpServerHost {
    fn take_accepted(&mut self) -> Vec<usize> {
        MptcpServerHost::take_accepted(self)
    }
}
