//! Disk-arm request scheduling policies.
//!
//! When several processes share one drive — the paper's "blocks belonging
//! to several processes would be allocated to each device" case — the order
//! the drive services its queue determines how much time is lost to seeks.
//! The classic policies are provided: FIFO (fair, seek-oblivious), SSTF
//! (greedy shortest-seek), and the elevator algorithms SCAN and C-SCAN.

/// Queue service order policy.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SchedPolicy {
    /// First-come first-served (arrival order).
    Fifo,
    /// Shortest seek time first: nearest cylinder next.
    Sstf,
    /// Elevator: sweep up-cylinder, then reverse.
    Scan,
    /// Circular elevator: sweep up-cylinder, then jump to the lowest
    /// pending cylinder and sweep up again.
    CScan,
}

/// Scheduling state (the SCAN direction) plus the policy.
#[derive(Copy, Clone, Debug)]
pub struct Scheduler {
    /// The policy in force.
    pub policy: SchedPolicy,
    going_up: bool,
}

impl Scheduler {
    /// A scheduler for `policy`, initially sweeping toward higher
    /// cylinders.
    pub fn new(policy: SchedPolicy) -> Scheduler {
        Scheduler {
            policy,
            going_up: true,
        }
    }

    /// Choose the index of the next request to service.
    ///
    /// `queue` holds `(cylinder, arrival_tag)` pairs in arrival order;
    /// `head` is the arm's current cylinder. Ties are broken by arrival
    /// tag, so the choice is deterministic. Returns `None` on an empty
    /// queue.
    pub fn pick(&mut self, queue: &[(u32, u64)], head: u32) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        let best = |it: &mut dyn Iterator<Item = (usize, (u32, u64))>,
                    key: &dyn Fn((u32, u64)) -> (u64, u64)|
         -> Option<usize> { it.min_by_key(|&(_, q)| key(q)).map(|(i, _)| i) };
        let idx = match self.policy {
            SchedPolicy::Fifo => best(&mut queue.iter().copied().enumerate(), &|(_, tag)| (tag, 0)),
            SchedPolicy::Sstf => best(&mut queue.iter().copied().enumerate(), &|(cyl, tag)| {
                (u64::from(cyl.abs_diff(head)), tag)
            }),
            SchedPolicy::Scan => {
                let pick_dir = |up: bool| {
                    let it = queue.iter().copied().enumerate().filter(|&(_, (cyl, _))| {
                        if up {
                            cyl >= head
                        } else {
                            cyl <= head
                        }
                    });
                    if up {
                        it.min_by_key(|&(_, (cyl, tag))| (cyl, tag)).map(|(i, _)| i)
                    } else {
                        it.min_by_key(|&(_, (cyl, tag))| (u32::MAX - cyl, tag))
                            .map(|(i, _)| i)
                    }
                };
                match pick_dir(self.going_up) {
                    Some(i) => Some(i),
                    None => {
                        self.going_up = !self.going_up;
                        pick_dir(self.going_up)
                    }
                }
            }
            SchedPolicy::CScan => {
                let up = queue
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, (cyl, _))| cyl >= head)
                    .min_by_key(|&(_, (cyl, tag))| (cyl, tag))
                    .map(|(i, _)| i);
                up.or_else(|| {
                    best(&mut queue.iter().copied().enumerate(), &|(cyl, tag)| {
                        (u64::from(cyl), tag)
                    })
                })
            }
        };
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(cyls: &[u32]) -> Vec<(u32, u64)> {
        cyls.iter().copied().zip(0u64..).collect()
    }

    #[test]
    fn fifo_ignores_position() {
        let mut s = Scheduler::new(SchedPolicy::Fifo);
        assert_eq!(s.pick(&q(&[900, 10, 500]), 500), Some(0));
    }

    #[test]
    fn sstf_picks_nearest() {
        let mut s = Scheduler::new(SchedPolicy::Sstf);
        assert_eq!(s.pick(&q(&[900, 10, 480]), 500), Some(2));
        // Tie at equal distance goes to earlier arrival.
        assert_eq!(s.pick(&q(&[510, 490]), 500), Some(0));
    }

    #[test]
    fn scan_sweeps_then_reverses() {
        let mut s = Scheduler::new(SchedPolicy::Scan);
        // Going up from 500: nearest at-or-above is 520.
        assert_eq!(s.pick(&q(&[100, 520, 900, 480]), 500), Some(1));
        // Nothing above 950: reverse, take highest below.
        let mut s = Scheduler::new(SchedPolicy::Scan);
        assert_eq!(s.pick(&q(&[100, 480]), 950), Some(1));
        assert!(!s.going_up);
        // Now going down from 480: next is 100.
        assert_eq!(s.pick(&q(&[100, 470]), 480), Some(1));
    }

    #[test]
    fn cscan_wraps_to_lowest() {
        let mut s = Scheduler::new(SchedPolicy::CScan);
        assert_eq!(s.pick(&q(&[100, 520, 900]), 500), Some(1));
        // Nothing at or above 950: wrap to the lowest cylinder.
        assert_eq!(s.pick(&q(&[300, 100, 900]), 950), Some(1));
    }

    #[test]
    fn empty_queue() {
        for p in [
            SchedPolicy::Fifo,
            SchedPolicy::Sstf,
            SchedPolicy::Scan,
            SchedPolicy::CScan,
        ] {
            assert_eq!(Scheduler::new(p).pick(&[], 0), None);
        }
    }

    #[test]
    fn scan_services_everything_eventually() {
        // Simulate draining a queue; every policy must service all requests.
        for p in [
            SchedPolicy::Fifo,
            SchedPolicy::Sstf,
            SchedPolicy::Scan,
            SchedPolicy::CScan,
        ] {
            let mut s = Scheduler::new(p);
            let mut queue = q(&[700, 10, 350, 999, 350, 0]);
            let mut head = 400;
            let mut served = 0;
            while let Some(i) = s.pick(&queue, head) {
                head = queue.remove(i).0;
                served += 1;
                assert!(served <= 6);
            }
            assert_eq!(served, 6, "{p:?} failed to drain");
        }
    }
}
