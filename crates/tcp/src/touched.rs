//! What a host's per-step walks need to know about each of its
//! connections without asking it.
//!
//! A host ([`crate::stack::TcpStack`], and the MPTCP endpoints' table)
//! keeps its connections in rows. [`Touched`] sits beside them: the list
//! of rows something touched since the last drain, and for every other
//! row the timer horizon the connection had when it was last drained.
//! A drained connection is settled — until something touches it, another
//! drain hands over nothing and its timers stay where they are — so the
//! drain visits the list alone, and the timer walks read the stored
//! horizons of the rest. Everything is a dense array: no hashing and no
//! tree, so a host with one connection pays a push and a store per step.
//! [`Ready`] is the application's side of the same idea: the
//! connections a segment reached since the application last asked.

use mpwifi_simcore::Time;

/// A stored horizon for "no timer" (and for a row on the list, whose
/// connection is asked instead): later than any instant a run reaches.
const NEVER: u64 = u64::MAX;

/// The touched list and the stored horizons of one connection table.
#[derive(Debug, Default)]
pub struct Touched {
    /// Per row: its next timer in nanoseconds as of its last drain, or
    /// [`NEVER`] — for no timer, and while the row is on `list`. A plain
    /// integer, so the table's earliest is a branch-free minimum.
    horizon: Vec<u64>,
    /// Per row: whether it is on `list`.
    on_list: Vec<bool>,
    /// Rows touched since the last drain, in touch order.
    list: Vec<usize>,
    /// The least `horizon`, kept exact: a drain can only lower it, and
    /// a touch that removes it looks for the next.
    earliest: u64,
}

impl Touched {
    /// An empty table.
    pub fn new() -> Touched {
        Touched {
            earliest: NEVER,
            ..Touched::default()
        }
    }

    /// A new row at `at`, touched; the rows from `at` on move down one.
    pub fn insert(&mut self, at: usize) {
        self.horizon.insert(at, NEVER);
        self.on_list.insert(at, true);
        for row in &mut self.list {
            *row += usize::from(*row >= at);
        }
        self.list.push(at);
    }

    /// A new last row, touched.
    pub fn push(&mut self) {
        self.list.push(self.horizon.len());
        self.horizon.push(NEVER);
        self.on_list.push(true);
    }

    /// Put row `i` on the list: its stored horizon no longer holds.
    #[inline]
    pub fn touch(&mut self, i: usize) {
        if !self.on_list[i] {
            self.on_list[i] = true;
            self.list.push(i);
            let horizon = std::mem::replace(&mut self.horizon[i], NEVER);
            if horizon == self.earliest && horizon != NEVER {
                self.earliest = self.horizon.iter().copied().min().unwrap_or(NEVER);
            }
        }
    }

    /// The earliest timer of the table: the settled rows' earliest
    /// stored horizon, and the touched rows' `live` answers.
    #[inline]
    pub fn next_timer(&self, live: impl Fn(usize) -> Option<Time>) -> Option<Time> {
        let stored = (self.earliest != NEVER).then(|| Time::from_nanos(self.earliest));
        let touched = self.list.iter();
        touched.fold(stored, |next, &i| Time::earlier(next, live(i)))
    }

    /// Call `fire` on each row, in row order, that is touched or whose
    /// stored horizon has come, touching the latter. A touched row is
    /// asked whatever its horizon: a connection decides for itself
    /// whether a timer pass has work. While no stored horizon can have
    /// come, only the list is walked.
    pub fn on_timers(&mut self, now: Time, mut fire: impl FnMut(usize)) {
        let now = now.as_nanos();
        if self.earliest > now {
            self.list.sort_unstable();
            self.list.iter().for_each(|&i| fire(i));
            return;
        }
        for i in 0..self.horizon.len() {
            if self.horizon[i] <= now || self.on_list[i] {
                self.touch(i);
                fire(i);
            }
        }
    }

    /// Debug builds: every settled row's connection must still be
    /// settled with an empty queue and its next timer the stored one.
    /// `live` answers for row `i`: `Some(its next timer)` when the
    /// connection is settled with nothing queued, `None` otherwise.
    pub fn check(&self, live: impl Fn(usize) -> Option<Option<Time>>) {
        if cfg!(debug_assertions) {
            for i in (0..self.horizon.len()).filter(|&i| !self.on_list[i]) {
                let stored = (self.horizon[i] != NEVER).then(|| Time::from_nanos(self.horizon[i]));
                assert_eq!(
                    live(i),
                    Some(stored),
                    "row {i}: an untouched connection moved"
                );
            }
        }
    }

    /// Visit the touched rows in row order, emptying the list. `visit`
    /// drains row `i` and returns `Some(its next timer)` if the
    /// connection is settled after it, `None` if the drain left it work
    /// (it stays touched).
    pub fn drain(&mut self, mut visit: impl FnMut(usize) -> Option<Option<Time>>) {
        self.list.sort_unstable();
        let mut kept = 0;
        for k in 0..self.list.len() {
            let i = self.list[k];
            match visit(i) {
                Some(horizon) => {
                    debug_assert!(horizon.is_none_or(|t| t.as_nanos() != NEVER));
                    let horizon = horizon.map_or(NEVER, Time::as_nanos);
                    self.horizon[i] = horizon;
                    self.earliest = self.earliest.min(horizon);
                    self.on_list[i] = false;
                }
                None => {
                    self.list[kept] = i;
                    kept += 1;
                }
            }
        }
        self.list.truncate(kept);
    }

    #[cfg(test)]
    fn list(&self) -> &[usize] {
        &self.list
    }
}

/// The connections a segment reached since an application last asked:
/// what a host hands `SocketHost::take_ready`. Ids, not rows, so a row
/// inserted before one moves nothing here.
#[derive(Debug)]
pub struct Ready<Id> {
    ids: Vec<Id>,
}

impl<Id> Default for Ready<Id> {
    fn default() -> Ready<Id> {
        Ready { ids: Vec::new() }
    }
}

impl<Id: Copy + Ord> Ready<Id> {
    /// A segment reached `id`, one of `conns` connections. A burst to
    /// one connection is one entry, and a host nobody asks keeps at most
    /// about twice its connections.
    #[inline]
    pub fn mark(&mut self, id: Id, conns: usize) {
        if self.ids.last() != Some(&id) {
            self.ids.push(id);
            if self.ids.len() > 2 * conns {
                self.compact();
            }
        }
    }

    fn compact(&mut self) {
        self.ids.sort_unstable();
        self.ids.dedup();
    }

    /// Append the marked ids to `out`, each once and in id order, and
    /// forget them.
    pub fn take(&mut self, out: &mut Vec<Id>) {
        self.compact();
        out.append(&mut self.ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_touched_rows_are_drained_and_an_insert_shifts_the_list() {
        let mut t = Touched::new();
        for _ in 0..4 {
            t.push();
        }
        let mut drained = Vec::new();
        t.drain(|i| {
            drained.push(i);
            Some(Some(Time::from_millis(10 + i as u64)))
        });
        assert_eq!(drained, [0, 1, 2, 3]);
        t.touch(3);
        t.touch(1);
        t.touch(3);
        assert_eq!(t.list(), [3, 1]);
        t.insert(2);
        assert_eq!(t.list(), [4, 1, 2]);
        drained.clear();
        t.check(|i| Some(Some(Time::from_millis(10 + [0, 1, 0, 2, 3][i]))));
        t.drain(|i| {
            drained.push(i);
            (i != 4).then_some(None)
        });
        assert_eq!(drained, [1, 2, 4], "row order; row 4 kept its work");
        assert_eq!(t.list(), [4]);
    }

    #[test]
    fn timers_read_stored_horizons_and_ask_touched_rows() {
        let mut t = Touched::new();
        t.push();
        t.push();
        t.push();
        t.drain(|i| Some([Some(Time::from_millis(5)), None, Some(Time::from_millis(9))][i]));
        t.touch(1);
        let live = |i: usize| [None, Some(Time::from_millis(7)), None][i];
        assert_eq!(t.next_timer(live), Some(Time::from_millis(5)));
        let mut fired = Vec::new();
        t.on_timers(Time::from_millis(6), |i| fired.push(i));
        assert_eq!(fired, [0, 1], "row 0's horizon came; row 1 is touched");
        assert_eq!(t.list(), [1, 0]);
        assert_eq!(t.next_timer(|_| None), Some(Time::from_millis(9)));
    }

    #[test]
    fn ready_ids_come_once_in_order_and_stay_bounded_unasked() {
        let mut r = Ready::default();
        for _ in 0..100 {
            r.mark(5, 3);
            r.mark(2, 3);
        }
        r.mark(9, 3);
        assert!(
            r.ids.len() <= 7,
            "{} ids kept for 3 connections",
            r.ids.len()
        );
        let mut out = vec![1];
        r.take(&mut out);
        assert_eq!(out, [1, 2, 5, 9]);
        out.clear();
        r.take(&mut out);
        assert!(out.is_empty(), "a drained list comes back empty");
    }
}
