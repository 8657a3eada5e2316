//! Property-style tests of the authenticated data structures: roots are
//! content-determined, proofs verify exactly for the data they were issued
//! for, and the two state indexes agree with a reference map.
//!
//! Instead of `proptest`, cases are generated by deterministic seeded loops
//! (`dichotomy_common::rng::derive_seed`), so the workspace stays free of
//! external dependencies and every failure is reproducible from the case
//! seed printed in the assertion message.

use std::collections::HashMap;

use dichotomy_common::rng::{derive_seed, seeded, Rng, StdRng};
use dichotomy_common::size::StorageFootprint;
use dichotomy_common::{Hash, Key, Value};
use dichotomy_merkle::{MerkleBucketTree, MerklePatriciaTrie, MerkleTree};

const CASES: u64 = 48;

/// A random write batch: up to 150 (key-index, value-length) pairs, the same
/// distribution the original proptest strategy produced.
fn arb_kv(rng: &mut StdRng) -> Vec<(u16, u8)> {
    let len = rng.gen_range(1..150usize);
    (0..len)
        .map(|_| (rng.gen::<u16>(), rng.gen_range(1..200u8)))
        .collect()
}

fn key_of(i: u16) -> Key {
    Key::new(Hash::of(&i.to_be_bytes()).0[..16].to_vec())
}

fn for_each_case(label: &str, mut check: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let seed = derive_seed(derive_seed(0xAD5, label), &case.to_string());
        check(seed, &mut seeded(seed));
    }
}

#[test]
fn mpt_matches_reference_map() {
    for_each_case("mpt-reference", |seed, rng| {
        let writes = arb_kv(rng);
        let mut trie = MerklePatriciaTrie::new();
        let mut reference: HashMap<u16, u8> = HashMap::new();
        for (k, len) in writes {
            trie.insert(&key_of(k), &Value::filler(len as usize));
            reference.insert(k, len);
        }
        assert_eq!(trie.len(), reference.len(), "seed {seed}");
        for (k, len) in &reference {
            assert_eq!(
                trie.get(&key_of(*k)).unwrap().len(),
                *len as usize,
                "seed {seed}"
            );
        }
    });
}

#[test]
fn mpt_root_depends_only_on_content() {
    for_each_case("mpt-root-content", |seed, rng| {
        // Building with the same final content in two different orders (and
        // with intermediate overwrites) must give the same root (the root
        // never depends on history).
        let writes = arb_kv(rng);
        let mut final_content: HashMap<u16, u8> = HashMap::new();
        for (k, len) in &writes {
            final_content.insert(*k, *len);
        }
        let mut a = MerklePatriciaTrie::new();
        for (k, len) in &writes {
            a.insert(&key_of(*k), &Value::filler(*len as usize));
        }
        let mut b = MerklePatriciaTrie::new();
        let mut items: Vec<_> = final_content.iter().collect();
        items.sort();
        for (k, len) in items {
            b.insert(&key_of(*k), &Value::filler(*len as usize));
        }
        assert_eq!(a.root_hash(), b.root_hash(), "seed {seed}");
    });
}

#[test]
fn mpt_proofs_verify_for_every_key() {
    for_each_case("mpt-proofs", |seed, rng| {
        let writes = arb_kv(rng);
        let mut trie = MerklePatriciaTrie::new();
        let mut reference: HashMap<u16, u8> = HashMap::new();
        for (k, len) in writes {
            trie.insert(&key_of(k), &Value::filler(len as usize));
            reference.insert(k, len);
        }
        let root = trie.root_hash();
        for k in reference.keys() {
            let proof = trie.prove(&key_of(*k)).unwrap();
            assert!(
                MerklePatriciaTrie::verify_proof(root, &key_of(*k), &proof),
                "seed {seed}"
            );
            assert!(
                !MerklePatriciaTrie::verify_proof(Hash::of(b"bogus"), &key_of(*k), &proof),
                "seed {seed}"
            );
        }
    });
}

#[test]
fn mbt_authenticates_exactly_the_written_values() {
    for_each_case("mbt-authenticate", |seed, rng| {
        let writes = arb_kv(rng);
        let mut mbt = MerkleBucketTree::new(128, 4);
        let mut reference: HashMap<u16, u8> = HashMap::new();
        for (k, len) in writes {
            mbt.put(&key_of(k), &Value::filler(len as usize));
            reference.insert(k, len);
        }
        assert_eq!(mbt.len(), reference.len(), "seed {seed}");
        for (k, len) in &reference {
            assert!(
                mbt.authenticate(&key_of(*k), &Value::filler(*len as usize)),
                "seed {seed}"
            );
            assert!(
                !mbt.authenticate(&key_of(*k), &Value::filler(*len as usize + 1)),
                "seed {seed}"
            );
        }
    });
}

#[test]
fn merkle_tree_proofs_bind_leaf_index_and_content() {
    for_each_case("merkle-inclusion", |seed, rng| {
        let n = rng.gen_range(1..200usize);
        let leaves: Vec<Hash> = (0..n)
            .map(|i| Hash::of(format!("leaf{i}").as_bytes()))
            .collect();
        let tree = MerkleTree::build(&leaves);
        let i = rng.gen_range(0..n);
        let proof = tree.prove(i).unwrap();
        assert!(proof.verify(leaves[i], tree.root()), "seed {seed}");
        assert!(
            !proof.verify(Hash::of(b"tampered"), tree.root()),
            "seed {seed}"
        );
    });
}

/// Roots, node count and byte accounting of both state indexes, for
/// [`state_roots_match_pinned_digests`].
fn snapshot(trie: &MerklePatriciaTrie, mbt: &MerkleBucketTree) -> String {
    let f = trie.footprint();
    format!(
        "{} {} {} {} {} {}",
        trie.root_hash(),
        mbt.root_hash(),
        trie.stored_node_count(),
        f.payload_bytes,
        f.index_bytes,
        mbt.footprint().index_bytes
    )
}

/// Both state roots and the trie's archival node store, pinned to values
/// computed with the portable scalar SHA-256 and the two-pass trie writes
/// they replaced: 2 000 records with 1 000-byte seeded values, then every
/// third key overwritten with a 700-byte value.
#[test]
fn state_roots_match_pinned_digests() {
    let mut rng = seeded(0x601D);
    let mut value = |len: usize| Value::new((0..len).map(|_| rng.gen::<u8>()).collect::<Vec<u8>>());
    let mut trie = MerklePatriciaTrie::new();
    let mut mbt = MerkleBucketTree::fabric_default();
    for i in 0..2000u16 {
        let v = value(1000);
        trie.insert(&key_of(i), &v);
        mbt.put(&key_of(i), &v);
    }
    assert_eq!(
        snapshot(&trie, &mbt),
        "f53cbd446902bdf1be2579c96180738abfcf81416390b44c14e568ee87d71040 \
         a7d62e57ced047c2e26e24567ab14bf31e2a0f3815875850db63b56d5d103f2d \
         8787 2000000 3183861 90688"
    );
    for i in (0..2000u16).step_by(3) {
        let v = value(700);
        trie.insert(&key_of(i), &v);
        mbt.put(&key_of(i), &v);
    }
    assert_eq!(
        snapshot(&trie, &mbt),
        "82f2ec184a2cd5368b49d109b04674782a1639ce58d0e800498f2ba791fb279a \
         90cbeeaf50c565445d2eab16c8d12442e0c85ed3ec148cc8e6cd3f93c976e4ea \
         11710 1799900 4818787 90688"
    );
}
