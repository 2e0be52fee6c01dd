//! The app-facing socket seam: what a workload driver does to a
//! connection, once, for both stacks.
//!
//! [`crate::Endpoint`] is the side of a host the event loop drives;
//! this is the side an application holds. [`Socket`] is the per-
//! connection operation list `TcpConnection` and `MptcpConnection`
//! already share by name; [`SocketHost`] resolves a connection id on any
//! of the four hosts and names the connections a segment reached since
//! it was last asked ([`SocketHost::take_ready`], what lets a replay
//! visit only those), and [`Accept`] adds the server's accept queue.
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
    type Id: Copy + PartialEq;
    /// The connection type behind an id.
    type Conn: Socket;

    /// The connection `id` names. Ids come from the host's open call or
    /// from [`Accept::take_accepted`], and a host never drops a connection,
    /// so an unknown id is a caller bug and panics. A borrow is a touch:
    /// the host's next drain visits the connection, whatever the caller
    /// did with it.
    fn socket(&mut self, id: Self::Id) -> &mut Self::Conn;

    /// Append to `out` the connections a segment reached since the last
    /// call (a server's new connections included), each once. Nothing a
    /// [`Socket`] reads — delivered bytes, establishment, closure — moves
    /// but by a segment, so an application that visits only these
    /// connections, and any whose time it waits for has come, reads all
    /// there is to read.
    fn take_ready(&mut self, out: &mut Vec<Self::Id>);
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
    fn take_ready(&mut self, out: &mut Vec<SocketId>) {
        self.stack.take_ready(out);
    }
}

impl SocketHost for TcpServerHost {
    type Id = SocketId;
    type Conn = TcpConnection;
    fn socket(&mut self, id: SocketId) -> &mut TcpConnection {
        self.stack.conn_mut(id).expect("unknown TCP socket id")
    }
    fn take_ready(&mut self, out: &mut Vec<SocketId>) {
        self.stack.take_ready(out);
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
    fn take_ready(&mut self, out: &mut Vec<usize>) {
        MptcpClientHost::take_ready(self, out);
    }
}

impl SocketHost for MptcpServerHost {
    type Id = usize;
    type Conn = MptcpConnection;
    fn socket(&mut self, id: usize) -> &mut MptcpConnection {
        self.conn_mut(id)
    }
    fn take_ready(&mut self, out: &mut Vec<usize>) {
        MptcpServerHost::take_ready(self, out);
    }
}

impl Accept for MptcpServerHost {
    fn take_accepted(&mut self) -> Vec<usize> {
        MptcpServerHost::take_accepted(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkSpec, Sim, LTE_ADDR, SERVER_ADDR, SERVER_PORT, WIFI_ADDR};
    use mpwifi_mptcp::MptcpConfig;
    use mpwifi_simcore::Dur;
    use mpwifi_tcp::conn::TcpConfig;
    use std::fmt::Debug;

    /// Step until `host` reports something ready, and return it.
    fn next_ready<C: SocketHost, S: Accept, H>(
        sim: &mut Sim<C, S>,
        host: impl Fn(&mut Sim<C, S>) -> &mut H,
    ) -> Vec<H::Id>
    where
        H: SocketHost,
    {
        let mut ready = Vec::new();
        while ready.is_empty() {
            assert!(sim.step(), "the world quiesced first");
            host(sim).take_ready(&mut ready);
        }
        ready
    }

    /// Open one connection and walk both hosts' ready lists through the
    /// handshake and one request: the SYN readies the connection it
    /// creates on the server, the SYN-ACK the client's, the request the
    /// server's again, and each list comes back empty once drained.
    fn ready_lists_follow_the_segments<C, S>(
        client: C,
        server: S,
        open: impl FnOnce(&mut C) -> C::Id,
    ) where
        C: SocketHost,
        S: Accept,
        C::Id: Debug,
        S::Id: Debug,
    {
        let (wifi, lte) = (
            LinkSpec::symmetric(20_000_000, Dur::from_millis(20)),
            LinkSpec::symmetric(10_000_000, Dur::from_millis(40)),
        );
        let mut sim = Sim::builder(client, server).wifi(&wifi).lte(&lte).build();
        let id = open(&mut sim.client);
        let (mut c, mut s) = (Vec::new(), Vec::new());
        sim.client.take_ready(&mut c);
        sim.server.take_ready(&mut s);
        assert!(c.is_empty() && s.is_empty(), "nothing has arrived yet");

        let accepted = next_ready(&mut sim, |sim| &mut sim.server);
        assert_eq!(
            accepted,
            sim.server.take_accepted(),
            "the accept readies its connection"
        );
        sim.server.take_ready(&mut s);
        assert!(s.is_empty(), "a drained list comes back empty");

        assert_eq!(
            next_ready(&mut sim, |sim| &mut sim.client),
            [id],
            "the SYN-ACK"
        );
        sim.client.take_ready(&mut c);
        assert!(c.is_empty(), "a drained list comes back empty");

        sim.client.socket(id).send(Bytes::from_static(b"GET /"));
        while sim.server.socket(accepted[0]).delivered_bytes() < 5 {
            assert!(sim.step());
        }
        sim.server.take_ready(&mut s);
        assert_eq!(s, accepted, "the request readies the server's connection");
        s.clear();
        sim.server.take_ready(&mut s);
        assert!(s.is_empty(), "a drained list comes back empty");
    }

    #[test]
    fn tcp_hosts_report_what_a_segment_reached() {
        let client = TcpClientHost::new(WIFI_ADDR, SERVER_ADDR, 1);
        let server = TcpServerHost::new(SERVER_ADDR, SERVER_PORT, TcpConfig::default(), 7);
        ready_lists_follow_the_segments(client, server, |c| {
            c.connect(Time::ZERO, TcpConfig::default(), SERVER_PORT)
        });
    }

    #[test]
    fn mptcp_hosts_report_what_a_segment_reached() {
        let cfg = MptcpConfig::default();
        let client = MptcpClientHost::new(SERVER_ADDR, [WIFI_ADDR, LTE_ADDR], 1);
        let server = MptcpServerHost::new(SERVER_ADDR, SERVER_PORT, cfg.clone(), 7);
        ready_lists_follow_the_segments(client, server, |c| {
            c.open(Time::ZERO, cfg, WIFI_ADDR, SERVER_PORT)
        });
    }
}
