//! Staged as a deterministic-tier file that no other tier lists: the
//! `det-` allow has a rule to suppress, the other three do not.

// db-lint: allow(det-hash-iter) — keyed lookup only, never iterated
use std::collections::HashMap as Table;

pub fn lookup(m: &Table<u32, u32>, k: u32) -> Option<u32> {
    // db-lint: allow(hot-index) — not a hot-path file
    let first = m.get(&k).copied();
    // db-lint: allow(wire-cast) — not a wire file
    let narrow = first.map(|v| v as u16);
    // db-lint: allow(conc-lock-unwrap) — not a concurrency crate
    narrow.map(u32::from)
}
