//! Multi-pattern payload matching: one pass over the bytes, whatever the
//! number of signatures.
//!
//! A [`PatternSet`] is an Aho–Corasick automaton compiled **once**, when the
//! set is built, into a dense transition table: `next[state * 256 + byte]`
//! is the state after reading `byte` in `state`, failure links already
//! folded in, so a scan never backtracks and never follows a link at match
//! time. [`IdsNf`](crate::nfs::IdsNf) and
//! [`ScrubberNf`](crate::nfs::ScrubberNf) ask it one question per packet —
//! does the payload contain *any* signature — so the automaton stops at the
//! first accepting state and keeps no match positions.
//!
//! **Construction cost and size.** Building is `O(states × 256)` time and
//! `states × 256 × 2` bytes, where `states` is at most one more than the
//! summed pattern lengths (shared prefixes share states). The IDS's four
//! default signatures make 43 states ≈ 22 KB, built in microseconds; NFs
//! build their set in their constructors, never per packet. States are
//! `u16`, so a set is limited to 65 535 states (a 32 MB table) and
//! [`PatternSet::new`] panics beyond that.
//!
//! **Worst case.** [`PatternSet::is_match`] takes at most one transition
//! per haystack byte, for every input: there is no `O(n · m)` blow-up for a
//! sender to provoke with payloads made of signature prefixes (`////…`,
//! `UNION SELECUNION SELEC…`). The unit tests assert that bound as a count
//! of transitions, not as a time.
//!
//! **The root-state skip.** On ordinary traffic the automaton sits in its
//! root state nearly all the time, because most bytes begin no signature.
//! While in the root, the scan jumps straight to the next byte that leaves
//! it instead of taking a transition per byte. This is safe because it is
//! exactly what the transitions would have done: every skipped byte maps
//! root → root, so the automaton's state after the skip is the state it
//! would have reached byte by byte. The skip therefore changes no answer
//! and only lowers the transition count.
//!
//! How the skip finds that byte depends on how many bytes leave the root.
//! With one to four (the IDS's default signatures begin with four distinct
//! bytes, the ledger's scrubber with one), it compares each byte with
//! those exits directly, 32 bytes per branch. The compares are against
//! values held in registers and fold without a branch, so the optimizer
//! turns a chunk into a few vector compares; a table load per byte, the
//! other way, is an indexed load the optimizer cannot vectorize. Each exit
//! adds a compare per byte while the table's cost does not grow, so the
//! compares stop paying beyond a handful of exits; four covers both sets
//! the tree ships. A set with more exits (or none) tests eight loads of a
//! 256-entry table per branch instead. Either way, the exit inside the
//! first chunk that holds one is found with a table load per byte: one
//! byte compared with four exits takes a broadcast and a vector compare,
//! more than the load. On payload dense in exit bytes (`</a><a href="/x">`)
//! the skip finds a hit in the first chunk it tests, so each return to the
//! root costs one chunk test more than the per-byte search alone; a byte
//! that keeps the automaton out of the root (`////…` under `/etc/passwd`)
//! costs its transition as before and calls no skip at all.

use std::fmt;

/// The automaton's start state. It is never accepting: empty patterns,
/// the only ones the root could accept, are not compiled in.
const ROOT: u16 = 0;

/// Marks a trie edge that does not exist, while the automaton is built.
const NO_EDGE: u16 = u16::MAX;

/// A compiled set of byte patterns answering "does this haystack contain
/// any of them?" in a single pass (see the [module docs](self)).
///
/// An empty set matches nothing, and so does an empty pattern: a signature
/// has to name at least one byte to be found.
#[derive(Clone)]
pub struct PatternSet {
    /// The patterns as given (empty ones included), kept so that a set can
    /// be rebuilt with one more.
    patterns: Vec<Vec<u8>>,
    /// `next[state << 8 | byte]`: the dense transition table.
    next: Vec<u16>,
    /// States `>= first_accepting` end a pattern (their own, or a shorter
    /// one that is a suffix of the bytes read so far).
    first_accepting: u16,
    /// `leaves_root[byte]`: whether `byte` takes the root anywhere else.
    leaves_root: [bool; 256],
    /// The bytes that leave the root when there are one to four of them,
    /// padded to four by repeating the first: the root-state skip compares
    /// whole chunks against them instead of loading `leaves_root` per byte.
    root_exits: Option<[u8; 4]>,
}

impl PatternSet {
    /// Compiles `patterns` into one automaton.
    ///
    /// # Panics
    ///
    /// If the patterns need more than 65 535 automaton states (their summed
    /// length is the upper bound).
    pub fn new(patterns: Vec<Vec<u8>>) -> Self {
        // The trie, as rows of the transition table; `NO_EDGE` where a
        // state has no child for a byte.
        let mut next = vec![NO_EDGE; 256];
        let mut accepting = vec![false];
        for pattern in patterns.iter().filter(|p| !p.is_empty()) {
            let mut state = ROOT;
            for &byte in pattern {
                let edge = usize::from(state) << 8 | usize::from(byte);
                if next[edge] == NO_EDGE {
                    let child = u16::try_from(accepting.len())
                        .ok()
                        .filter(|&child| child != NO_EDGE)
                        .expect("a pattern set is limited to 65 535 automaton states");
                    next[edge] = child;
                    next.resize(next.len() + 256, NO_EDGE);
                    accepting.push(false);
                }
                state = next[edge];
            }
            accepting[usize::from(state)] = true;
        }

        // Breadth-first: a state's failure target is shallower than the
        // state, so its row is already complete when the state's missing
        // edges are copied from it.
        let mut fail = vec![ROOT; accepting.len()];
        let mut order = vec![ROOT];
        let mut head = 0;
        while let Some(&state) = order.get(head) {
            head += 1;
            let (row, fallback) = (
                usize::from(state) << 8,
                usize::from(fail[usize::from(state)]) << 8,
            );
            for byte in 0..256 {
                let child = next[row | byte];
                // What the failure target does with this byte; the root
                // falls back to itself.
                let inherited = if state == ROOT {
                    ROOT
                } else {
                    next[fallback | byte]
                };
                if child == NO_EDGE {
                    next[row | byte] = inherited;
                } else {
                    fail[usize::from(child)] = inherited;
                    accepting[usize::from(child)] |= accepting[usize::from(inherited)];
                    order.push(child);
                }
            }
        }

        // Renumber so that the accepting states come last and "is this a
        // match" is one comparison. The sort is stable and the root is not
        // accepting, so it keeps 0.
        order.sort_by_key(|&state| accepting[usize::from(state)]);
        let mut renumbered = vec![ROOT; order.len()];
        for (new, &old) in order.iter().enumerate() {
            renumbered[usize::from(old)] = new as u16;
        }
        let first_accepting = accepting.iter().filter(|&&accepts| !accepts).count() as u16;
        let mut dense = vec![ROOT; next.len()];
        for (old, &new) in renumbered.iter().enumerate() {
            for byte in 0..256 {
                dense[usize::from(new) << 8 | byte] =
                    renumbered[usize::from(next[old << 8 | byte])];
            }
        }

        let mut leaves_root = [false; 256];
        for (byte, leaves) in leaves_root.iter_mut().enumerate() {
            *leaves = dense[byte] != ROOT;
        }
        let exits: Vec<u8> = (0..=u8::MAX)
            .filter(|&byte| leaves_root[usize::from(byte)])
            .collect();
        let root_exits = match exits[..] {
            [first, ..] if exits.len() <= 4 => {
                let mut few = [first; 4];
                few[..exits.len()].copy_from_slice(&exits);
                Some(few)
            }
            _ => None,
        };
        PatternSet {
            patterns,
            next: dense,
            first_accepting,
            leaves_root,
            root_exits,
        }
    }

    /// The patterns the set was built from, in the order given.
    pub fn patterns(&self) -> &[Vec<u8>] {
        &self.patterns
    }

    /// Number of automaton states (the table holds 256 entries for each).
    pub fn state_count(&self) -> usize {
        self.next.len() >> 8
    }

    /// Whether `haystack` contains at least one of the patterns.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        self.scan(haystack).0
    }

    /// The scan behind [`is_match`](Self::is_match), also returning how
    /// many transitions it took (the tests bound that count; `is_match`
    /// drops it and the optimizer drops the counting with it).
    #[inline(always)]
    fn scan(&self, haystack: &[u8]) -> (bool, usize) {
        let mut transitions = 0;
        let mut state = ROOT;
        let mut rest = haystack;
        loop {
            if state == ROOT {
                // Bytes that leave the root nowhere are not worth a
                // transition each: resume at the first one that does.
                match self.first_leaving_root(rest) {
                    Some(skipped) => rest = &rest[skipped..],
                    None => return (false, transitions),
                }
            }
            let Some((&byte, tail)) = rest.split_first() else {
                return (false, transitions);
            };
            rest = tail;
            state = self.next[usize::from(state) << 8 | usize::from(byte)];
            transitions += 1;
            if state >= self.first_accepting {
                return (true, transitions);
            }
        }
    }

    /// Index of the first of `bytes` that takes the root to another state.
    /// Chunks holding no such byte are passed over first: 32 bytes per
    /// branch by a branch-free fold of compares, which the optimizer
    /// vectorizes, when the set has at most four exits; else eight table
    /// loads per branch (on payload that begins no signature, the per-byte
    /// branch of a plain `position` costs more than the loads do). The
    /// first exit is then found byte by byte in the table.
    #[inline(always)]
    fn first_leaving_root(&self, bytes: &[u8]) -> Option<usize> {
        let leaves = |&byte: &u8| self.leaves_root[usize::from(byte)];
        let clear = match self.root_exits {
            Some([e0, e1, e2, e3]) => {
                let exit = |&byte: &u8| (byte == e0) | (byte == e1) | (byte == e2) | (byte == e3);
                bytes
                    .chunks_exact(32)
                    .take_while(|chunk| {
                        chunk
                            .iter()
                            .fold(0u8, |any, byte| any | u8::from(exit(byte)))
                            == 0
                    })
                    .count()
                    * 32
            }
            None => {
                bytes
                    .chunks_exact(8)
                    .take_while(|chunk| !chunk.iter().fold(false, |any, byte| any | leaves(byte)))
                    .count()
                    * 8
            }
        };
        Some(clear + bytes[clear..].iter().position(leaves)?)
    }
}

impl Default for PatternSet {
    /// The empty set, which matches nothing.
    fn default() -> Self {
        PatternSet::new(Vec::new())
    }
}

impl fmt::Debug for PatternSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The table is tens of kilobytes of state numbers: name the
        // patterns and the size instead.
        f.debug_struct("PatternSet")
            .field("patterns", &self.patterns)
            .field("states", &self.state_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfs::ids::DEFAULT_SIGNATURES;

    fn set(patterns: &[&[u8]]) -> PatternSet {
        PatternSet::new(patterns.iter().map(|p| p.to_vec()).collect())
    }

    /// `patterns` with its root-state skip forced onto the table, whatever
    /// its exit count: the path a set with more than four exits takes.
    fn with_table_skip(patterns: &PatternSet) -> PatternSet {
        PatternSet {
            root_exits: None,
            ..patterns.clone()
        }
    }

    #[test]
    fn default_ids_signatures_compile_to_43_states() {
        let ids = set(&DEFAULT_SIGNATURES);
        // 11 + 12 + 11 + 8 pattern bytes, no shared prefixes, plus the root.
        assert_eq!(ids.state_count(), 43);
        assert_eq!(ids.next.len() * std::mem::size_of::<u16>(), 22_016);
        assert_eq!(
            ids.leaves_root.iter().filter(|&&leaves| leaves).count(),
            4,
            "only the four first bytes leave the root"
        );
        for signature in DEFAULT_SIGNATURES {
            assert!(ids.is_match(signature));
        }
        assert!(!ids.is_match(b"GET /catalog/item?id=42 HTTP/1.1\r\nHost: shop.example\r\n"));
    }

    #[test]
    fn up_to_four_exits_are_compared_and_more_use_the_table() {
        assert_eq!(set(&DEFAULT_SIGNATURES).root_exits, Some(*b"'/<U"));
        // Fewer exits are padded by repeating the first.
        assert_eq!(set(&[b"UNION SELECT"]).root_exits, Some(*b"UUUU"));
        assert_eq!(set(&[b"b", b"ab"]).root_exits, Some(*b"abaa"));
        assert_eq!(set(&[b"a", b"b", b"c", b"d", b"e"]).root_exits, None);
        assert_eq!(set(&[]).root_exits, None, "no exit: the scan never leaves");
    }

    #[test]
    fn shared_prefixes_share_states() {
        // "ab" is counted once: root, a, ab, abc, abd.
        assert_eq!(set(&[b"abc", b"abd"]).state_count(), 5);
        assert_eq!(set(&[]).state_count(), 1);
        assert_eq!(set(&[b""]).state_count(), 1);
    }

    #[test]
    fn debug_names_patterns_not_the_table() {
        let text = format!("{:?}", set(&[b"ab"]));
        assert_eq!(text, "PatternSet { patterns: [[97, 98]], states: 3 }");
    }

    /// The worst case, as a count: whatever the input, a scan takes at most
    /// one transition per byte — under both signature sets used in the
    /// tree (the IDS's default four, and the single `UNION SELECT` the
    /// ledger's scrubber carries), and under either root-state skip, which
    /// take the same transitions.
    #[test]
    fn a_scan_never_takes_more_than_one_transition_per_byte() {
        let sets = [set(&DEFAULT_SIGNATURES), set(&[b"UNION SELECT"])];
        // Exits at the edges of the compare path's 32-byte chunks, and in
        // the tail after the last whole chunk.
        let at = |offsets: &[usize], exit: u8| {
            let mut haystack = b"x".repeat(100);
            for &offset in offsets {
                haystack[offset] = exit;
            }
            haystack
        };
        let adversarial: [(&str, Vec<u8>); 9] = [
            ("slashes", b"/".repeat(1500)),
            ("signature prefix, repeated", b"UNION SELEC".repeat(100)),
            ("quotes", b"'".repeat(1500)),
            ("every first byte in turn", b"'U/<".repeat(375)),
            ("two prefixes interleaved", b"/etc/passw<script".repeat(90)),
            ("slashes at chunk edges", at(&[31, 32, 33, 98], b'/')),
            ("U at chunk edges", at(&[31, 32, 33, 98], b'U')),
            ("a slash per chunk end", at(&[31, 63, 95, 99], b'/')),
            ("U in the tail only", at(&[96, 97, 99], b'U')),
        ];
        for patterns in &sets {
            let table = with_table_skip(patterns);
            assert!(patterns.root_exits.is_some());
            for (name, haystack) in &adversarial {
                let (matched, transitions) = patterns.scan(haystack);
                assert!(!matched, "{name}: a prefix is not a signature");
                assert!(
                    transitions <= haystack.len(),
                    "{name}: {transitions} transitions over {} bytes",
                    haystack.len()
                );
                assert_eq!(
                    table.scan(haystack),
                    (matched, transitions),
                    "{name}: the table skip takes the same transitions"
                );
            }
        }
        // The bound is reached, not just respected: every slash is a
        // possible start of "/etc/passwd", so each costs its transition…
        let (_, transitions) = sets[0].scan(&b"/".repeat(1500));
        assert_eq!(transitions, 1500);
        // …while bytes that start nothing cost none at all.
        let (_, transitions) = sets[0].scan(&b"x".repeat(1500));
        assert_eq!(transitions, 0);
        // An exit at a chunk edge costs its own transition (and the byte
        // after it, which takes "/" back to the root), no more.
        for offset in [31, 32, 33, 98] {
            let (_, transitions) = sets[0].scan(&at(&[offset], b'/'));
            assert_eq!(transitions, 2, "a slash at {offset}");
        }
        assert_eq!(sets[0].scan(&at(&[99], b'/')).1, 1, "the last byte");
        // Ordinary traffic pays for its few candidate bytes only.
        let request = b"GET /catalog/item?id=42 HTTP/1.1\r\nHost: shop.example\r\nX-Pad: abcdefgh";
        let (matched, transitions) = sets[0].scan(request);
        assert!(!matched);
        assert!(transitions <= 8, "{transitions} transitions for 3 slashes");
    }

    #[test]
    #[should_panic(expected = "65 535 automaton states")]
    fn an_oversized_set_is_refused() {
        // 300 patterns × 256 bytes, no two sharing a first byte pair.
        let patterns = (0..300u16)
            .map(|i| {
                let mut pattern = i.to_be_bytes().to_vec();
                pattern.resize(256, 0xAA);
                pattern
            })
            .collect();
        let _ = PatternSet::new(patterns);
    }
}
