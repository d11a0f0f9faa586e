//! Differential test: the pattern automaton agrees with a per-signature
//! window scan.
//!
//! [`PatternSet`] replaced the `windows(n).any(==)` loops `IdsNf` and
//! `ScrubberNf` used to run once per signature. That scan stays here as the
//! specification: seeded random signature sets drawn from a tiny alphabet
//! (so overlaps, shared prefixes, and one pattern inside another are the
//! rule, not the exception) are matched against random haystacks both ways,
//! and the answers must be equal. The edges the automaton could get wrong
//! are then pinned one by one, by name.

use sdnfv_nf::nfs::ScrubberNf;
use sdnfv_nf::{NetworkFunction, NfContext, PatternSet, Verdict};
use sdnfv_proto::packet::PacketBuilder;

const SEEDS: u64 = 256;
const HAYSTACKS_PER_SEED: usize = 48;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `len` letters of `alphabet`.
    fn bytes(&mut self, alphabet: &[u8], len: u64) -> Vec<u8> {
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect()
    }
}

/// The specification: the scan `IdsNf::payload_matches` and
/// `ScrubberNf::is_malicious` ran before the automaton — every signature in
/// turn, every window of the payload, and an empty signature never matches.
fn window_scan(signatures: &[Vec<u8>], haystack: &[u8]) -> bool {
    signatures
        .iter()
        .any(|sig| !sig.is_empty() && haystack.windows(sig.len()).any(|w| w == &sig[..]))
}

fn set(patterns: &[&[u8]]) -> PatternSet {
    PatternSet::new(patterns.iter().map(|p| p.to_vec()).collect())
}

#[test]
fn automaton_agrees_with_the_window_scan() {
    let (mut hits, mut misses) = (0u32, 0u32);
    for seed in 0..SEEDS {
        let mut rng = SplitMix64(seed);
        // 2–4 letters; 0x00 and 0xFF take part so that the extremes of the
        // byte-indexed tables are exercised on every seed.
        let letters = [b'a', 0x00, 0xFF, b'b'];
        let alphabet = &letters[..2 + rng.below(3) as usize];
        let signatures: Vec<Vec<u8>> = (0..1 + rng.below(8))
            .map(|_| {
                let len = 1 + rng.below(16);
                rng.bytes(alphabet, len)
            })
            .collect();
        let patterns = PatternSet::new(signatures.clone());
        assert_eq!(patterns.patterns(), &signatures[..]);
        for _ in 0..HAYSTACKS_PER_SEED {
            let len = rng.below(96);
            let haystack = rng.bytes(alphabet, len);
            let expected = window_scan(&signatures, &haystack);
            assert_eq!(
                patterns.is_match(&haystack),
                expected,
                "seed {seed}: signatures {signatures:?} over {haystack:?}"
            );
            if expected {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        // Each signature is itself a haystack that must match.
        for signature in &signatures {
            assert!(patterns.is_match(signature), "seed {seed}: {signature:?}");
        }
    }
    // The generator must feed both answers, or the comparison proves little.
    assert!(
        hits > 1_000 && misses > 1_000,
        "{hits} hits, {misses} misses"
    );
}

/// Signature sets whose first bytes — the bytes that leave the automaton's
/// root — number 1, 2, 4, 5 and 40, so that both root-state skips run (one
/// to four exits are compared directly, more are looked up in a table).
/// Each set holds the edge bytes `0x00`, `0x7F`, `0x80` and `0xFF` between
/// its signatures' first and last bytes, or as their first bytes.
fn exit_sets() -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let sig = |first: u8| vec![first, 0x00, 0x7F, 0x80, 0xFF, first];
    let firsts = |bytes: &[u8]| bytes.iter().map(|&b| sig(b)).collect::<Vec<_>>();
    vec![
        ("1 exit", firsts(b"U")),
        ("1 exit, 0x00", firsts(&[0x00])),
        ("1 exit, 0xFF", firsts(&[0xFF])),
        ("2 exits", firsts(&[0x7F, 0x80])),
        ("4 exits", firsts(&[0x00, 0x7F, 0x80, 0xFF])),
        ("5 exits", firsts(&[0x00, b'/', 0x7F, 0x80, 0xFF])),
        ("40 exits", (0..40).map(|i| sig(i * 6 + 3)).collect()),
    ]
}

/// Bytes that leave the root of none of [`exit_sets`]' sets.
const FILLER: u8 = b'x';

#[test]
fn root_skip_agrees_with_the_window_scan_at_every_length_and_offset() {
    let mut checked = 0u32;
    for (name, signatures) in exit_sets() {
        let patterns = PatternSet::new(signatures.clone());
        let check = |haystack: &[u8]| {
            assert_eq!(
                patterns.is_match(haystack),
                window_scan(&signatures, haystack),
                "{name}: {haystack:?}"
            );
        };
        let exits: Vec<u8> = signatures.iter().map(|sig| sig[0]).collect();
        // Every length from empty through a tail shorter than a chunk to
        // several whole chunks: filler alone, then a whole signature ending
        // on the last byte.
        for len in 0..=130 {
            let mut haystack = vec![FILLER; len];
            check(&haystack);
            let sig = &signatures[len % signatures.len()];
            if len >= sig.len() {
                haystack[len - sig.len()..].copy_from_slice(sig);
                check(&haystack);
                assert!(patterns.is_match(&haystack), "{name}: length {len}");
            }
            checked += 2;
        }
        for offset in 0..=96 {
            for &exit in &exits {
                // A lone exit byte at `offset`: a signature prefix, no match.
                let mut haystack = vec![FILLER; 130];
                haystack[offset] = exit;
                check(&haystack);
                // A whole signature starting there.
                let sig = signatures.iter().find(|sig| sig[0] == exit).unwrap();
                haystack[offset..offset + sig.len()].copy_from_slice(sig);
                check(&haystack);
                assert!(patterns.is_match(&haystack), "{name}: at {offset}");
                checked += 2;
            }
            // Two exits in one chunk. The first begins a signature and the
            // second only a prefix: the skip must stop at the first.
            let sig = &signatures[offset % signatures.len()];
            let second = exits[(offset + 1) % exits.len()];
            let mut haystack = vec![FILLER; 130];
            haystack[offset..offset + sig.len()].copy_from_slice(sig);
            haystack[offset + sig.len() + offset % 7] = second;
            check(&haystack);
            assert!(
                patterns.is_match(&haystack),
                "{name}: first of two at {offset}"
            );
            // The other way round: the skip resumes after the prefix and
            // still finds the signature.
            let mut haystack = vec![FILLER; 130];
            haystack[offset] = second;
            let start = offset + 1 + offset % 7;
            haystack[start..start + sig.len()].copy_from_slice(sig);
            check(&haystack);
            assert!(
                patterns.is_match(&haystack),
                "{name}: second of two at {offset}"
            );
            checked += 2;
        }
    }
    assert!(checked > 5_000, "{checked} haystacks");
}

#[test]
fn empty_signature_list_never_matches() {
    let none = PatternSet::new(Vec::new());
    assert!(!none.is_match(b""));
    assert!(!none.is_match(b"anything at all"));
    assert!(!PatternSet::default().is_match(b"anything at all"));
}

#[test]
fn empty_signature_never_matches() {
    // The `!sig.is_empty()` rule of the scans this replaced.
    let only_empty = set(&[b""]);
    assert!(!only_empty.is_match(b""));
    assert!(!only_empty.is_match(b"abc"));
    // …and it does not disturb its neighbours.
    let mixed = set(&[b"", b"bc"]);
    assert!(mixed.is_match(b"abc"));
    assert!(!mixed.is_match(b"ab"));
    assert_eq!(mixed.patterns().len(), 2, "kept as given");
}

#[test]
fn signature_longer_than_the_payload() {
    let long = set(&[b"UNION SELECT"]);
    assert!(!long.is_match(b"UNION SELEC"));
    assert!(!long.is_match(b"U"));
    assert!(!long.is_match(b""));
}

#[test]
fn match_ending_on_the_last_byte() {
    assert!(set(&[b"passwd"]).is_match(b"GET /etc/passwd"));
    assert!(set(&[b"d"]).is_match(b"GET /etc/passwd"));
}

#[test]
fn match_starting_at_byte_zero() {
    assert!(set(&[b"GET"]).is_match(b"GET /etc/passwd"));
    assert!(set(&[b"G"]).is_match(b"G"));
}

#[test]
fn bytes_0x00_and_0xff() {
    let edges = set(&[&[0x00, 0xFF, 0x00], &[0xFF, 0xFF]]);
    assert!(edges.is_match(&[1, 0x00, 0xFF, 0x00, 2]));
    assert!(edges.is_match(&[0xFF, 0xFF]));
    assert!(!edges.is_match(&[0x00, 0xFF, 0x01, 0xFF, 0x00]));
    assert!(!edges.is_match(&[0x00; 64]));
}

#[test]
fn signature_that_is_a_proper_suffix_of_another() {
    // Reading "xabcy" walks the long pattern's branch; "bc" ends inside it
    // without ever being walked from the root, so only a state that accepts
    // through its failure link reports it.
    let nested = set(&[b"abcd", b"bc"]);
    assert!(nested.is_match(b"xabcy"));
    assert!(nested.is_match(b"bc"));
    assert!(!nested.is_match(b"xabxcd"));
    // A chain of suffixes: "c" is reached through two links.
    assert!(set(&[b"abcd", b"bcx", b"c"]).is_match(b"zzabc"));
    // A failed branch resumes in the right place instead of at the root.
    assert!(set(&[b"aab"]).is_match(b"aaab"));
    assert!(set(&[b"abab", b"babb"]).is_match(b"ababb"));
}

#[test]
fn scrubber_with_signature_called_repeatedly_rebuilds_the_set() {
    let payload = |body: &[u8]| PacketBuilder::tcp().payload(body).build();
    let mut ctx = NfContext::new(0);
    let mut one = ScrubberNf::new().with_signature(b"evil".to_vec());
    assert_eq!(
        one.process(&payload(b"an evil thing"), &mut ctx),
        Verdict::Discard
    );
    assert_eq!(
        one.process(&payload(b"a vile thing"), &mut ctx),
        Verdict::Default
    );

    // Each further call leaves every earlier signature in force.
    let mut three = one
        .with_signature(b"vile".to_vec())
        .with_signature(Vec::new())
        .with_signature(b"ev".to_vec());
    for body in [&b"an evil thing"[..], b"a vile thing", b"seven"] {
        assert_eq!(three.process(&payload(body), &mut ctx), Verdict::Discard);
    }
    assert_eq!(
        three.process(&payload(b"a kind thing"), &mut ctx),
        Verdict::Default
    );
}
