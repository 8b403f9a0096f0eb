//! Deterministic fault schedules: which fault the Nth accepted
//! connection suffers, as a pure function of the schedule and N.

use std::fmt;

/// A network fault the proxy can inject on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Faithful full-duplex relay: the connection behaves exactly like a
    /// direct connection to the upstream.
    None,
    /// Accept, then close immediately without exchanging a byte — the
    /// observable shape of a refused/actively-down backend.
    Refuse,
    /// Accept, then go silent: never read, never write, hold the socket
    /// open until the stall cap (or proxy shutdown).
    Stall,
    /// Relay the upstream response one byte at a time with a delay
    /// between bytes, up to a byte cap, then close.
    SlowLoris,
    /// Answer with response headers plus a torn JSON prefix, then close
    /// with the request body deliberately left unread so the kernel
    /// replies with RST — a mid-body connection reset.
    ResetMidBody,
    /// Relay a short prefix of the real upstream response, then a clean
    /// FIN: a torn/short response that must not parse as success.
    Torn,
}

impl Fault {
    /// Every fault, in the order the seeded schedule maps onto.
    pub const ALL: [Fault; 6] = [
        Fault::None,
        Fault::Refuse,
        Fault::Stall,
        Fault::SlowLoris,
        Fault::ResetMidBody,
        Fault::Torn,
    ];

    /// The script/CLI name of this fault.
    pub fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::Refuse => "refuse",
            Fault::Stall => "stall",
            Fault::SlowLoris => "slow-loris",
            Fault::ResetMidBody => "reset",
            Fault::Torn => "torn",
        }
    }

    /// Parses a script/CLI fault name.
    pub fn parse(s: &str) -> Result<Fault, String> {
        Fault::ALL
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Fault::ALL.iter().map(|f| f.name()).collect();
                format!("unknown fault {s:?} (expected one of: {})", names.join(", "))
            })
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// SplitMix64: a tiny deterministic mixer with good avalanche behavior and
/// no state. A copy of `kamel_rng::splitmix64`, kept because this crate is
/// dependency-free by design.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Decides the fault for each accepted connection, deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosSchedule {
    /// Pseudo-random but reproducible: connection `i` suffers
    /// `splitmix64(seed ⊕ mix(i)) mod 6` mapped over [`Fault::ALL`]. A
    /// pure function of `(seed, i)` — no RNG state, so concurrent
    /// accepts cannot reorder the assignment.
    Seeded {
        /// The reproducibility seed.
        seed: u64,
    },
    /// An explicit fault sequence: `(fault, count)` runs, consumed in
    /// order; once exhausted, the **last entry repeats forever**.
    Scripted {
        /// The `(fault, repeat count)` runs, in order. Never empty.
        entries: Vec<(Fault, u64)>,
    },
}

impl ChaosSchedule {
    /// A seeded pseudo-random schedule.
    pub fn seeded(seed: u64) -> Self {
        ChaosSchedule::Seeded { seed }
    }

    /// Parses a script like `refuse*20,none` or `stall,torn*3,none`:
    /// comma-separated fault names, each with an optional `*count`
    /// (default 1). The last entry repeats forever.
    pub fn parse_script(s: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err("empty script entry (stray comma?)".into());
            }
            let (name, count) = match part.split_once('*') {
                None => (part, 1),
                Some((name, count)) => {
                    let count: u64 = count
                        .parse()
                        .map_err(|_| format!("bad repeat count in {part:?}"))?;
                    if count == 0 {
                        return Err(format!("zero repeat count in {part:?}"));
                    }
                    (name.trim(), count)
                }
            };
            entries.push((Fault::parse(name)?, count));
        }
        if entries.is_empty() {
            return Err("empty chaos script".into());
        }
        Ok(ChaosSchedule::Scripted { entries })
    }

    /// The fault the `connection`-th accepted connection (0-based, accept
    /// order) suffers. Pure: same schedule + index → same fault, always.
    pub fn fault_for(&self, connection: u64) -> Fault {
        match self {
            ChaosSchedule::Seeded { seed } => {
                let h = splitmix64(seed ^ splitmix64(connection));
                Fault::ALL[(h % Fault::ALL.len() as u64) as usize]
            }
            ChaosSchedule::Scripted { entries } => {
                let mut at = connection;
                for &(fault, count) in entries {
                    if at < count {
                        return fault;
                    }
                    at -= count;
                }
                entries.last().expect("script never empty").0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seeded_schedule_is_a_pure_function_of_seed_and_index() {
        let a = ChaosSchedule::seeded(42);
        let b = ChaosSchedule::seeded(42);
        let run: Vec<Fault> = (0..200).map(|i| a.fault_for(i)).collect();
        assert_eq!(run, (0..200).map(|i| b.fault_for(i)).collect::<Vec<_>>());
        // A different seed produces a different sequence...
        let c = ChaosSchedule::seeded(43);
        assert_ne!(run, (0..200).map(|i| c.fault_for(i)).collect::<Vec<_>>());
        // ...and 200 draws exercise every fault kind.
        for fault in Fault::ALL {
            assert!(run.contains(&fault), "seed 42 never drew {fault}");
        }
    }

    #[test]
    fn a_script_expands_counts_and_repeats_its_last_entry() {
        let s = ChaosSchedule::parse_script("refuse*3, slow-loris ,none*2").unwrap();
        let want = [
            Fault::Refuse,
            Fault::Refuse,
            Fault::Refuse,
            Fault::SlowLoris,
            Fault::None,
            Fault::None,
        ];
        for (i, &fault) in want.iter().enumerate() {
            assert_eq!(s.fault_for(i as u64), fault, "index {i}");
        }
        // Past the end, the last entry repeats forever.
        assert_eq!(s.fault_for(6), Fault::None);
        assert_eq!(s.fault_for(10_000), Fault::None);
        let t = ChaosSchedule::parse_script("none,torn").unwrap();
        assert_eq!(t.fault_for(0), Fault::None);
        assert_eq!(t.fault_for(1), Fault::Torn);
        assert_eq!(t.fault_for(99), Fault::Torn);
    }

    #[test]
    fn bad_scripts_are_rejected_with_a_reason() {
        for bad in ["", "banana", "refuse*0", "refuse*", "refuse*x", "none,,torn"] {
            let err = ChaosSchedule::parse_script(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?} accepted");
        }
    }

    #[test]
    fn fault_names_round_trip() {
        for fault in Fault::ALL {
            assert_eq!(Fault::parse(fault.name()).unwrap(), fault);
        }
        assert!(Fault::parse("banana").is_err());
    }
}
