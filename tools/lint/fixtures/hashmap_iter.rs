// Fixture: violates the hashmap-iter rule (not compiled into the
// workspace; fed to the linter by tools/lint/tests/lint.rs).
use std::collections::{HashMap, HashSet};
use sim_core::DetHashMap;

pub struct Table {
    pending: HashMap<u64, u32>,
}

impl Table {
    pub fn total(&self) -> u32 {
        let mut sum = 0;
        for (_, v) in self.pending.iter() {
            sum += v;
        }
        sum
    }

    pub fn drop_all(&mut self) {
        for k in self.pending.keys() {
            let _ = k;
        }
    }
}

pub fn union(a: HashSet<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for v in &a {
        out.push(*v);
    }
    out
}

// A method chain rustfmt split across lines, on a field of the
// deterministic-hasher alias: still hash order, still flagged.
pub struct Split {
    live: DetHashMap<u64, u32>,
    alive: Vec<u64>,
}

impl Split {
    pub fn first_live(&self) -> Option<u64> {
        self
            .live
            .keys()
            .next()
            .copied()
    }

    // `alive` ends in `live` but is a Vec: not a finding.
    pub fn first_alive(&self) -> Option<u64> {
        self
            .alive
            .iter()
            .next()
            .copied()
    }
}
