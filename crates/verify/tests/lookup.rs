//! Property tests of the inverted index's lookups over the generator of
//! `vn-fuzz --lookup`: the blocked similarity search agrees with a
//! brute-force scan, and the iterative LIKE matcher with the recursive one.

use valuenet_verify::lookup_fuzz::MAX_LOOKUP_DIST;
use valuenet_verify::{
    case_seed, gen_lookup_case, reference_find_similar, reference_like_match, run_lookup_fuzz,
};

#[test]
fn inverted_index_lookup_agrees_with_brute_force_scan() {
    let mut hits_at = [0usize; MAX_LOOKUP_DIST + 1];
    let mut longer_when_lowercased = 0;
    for i in 0..200 {
        let case = gen_lookup_case(case_seed(11, i));
        for query in &case.queries {
            for (k, hits) in hits_at.iter_mut().enumerate() {
                let got = case.db.index().find_similar(query, k);
                let want = reference_find_similar(&case.db, query, k);
                assert_eq!(got, want, "case {i}: find_similar({query:?}, {k})");
                *hits += got.len();
                longer_when_lowercased += got
                    .iter()
                    .filter(|h| h.value.to_lowercase().chars().count() > h.value.chars().count())
                    .count();
            }
        }
    }
    // The comparison means something only if every k finds values, some of
    // them ones whose lowercase is longer than their spelling.
    assert!(hits_at.iter().all(|&n| n > 100), "hits per k: {hits_at:?}");
    assert!(longer_when_lowercased > 0, "no hit lowercases to a longer string");
}

#[test]
fn like_match_agrees_with_the_recursive_matcher() {
    let mut matched = 0;
    for i in 0..500 {
        for (pattern, text) in gen_lookup_case(case_seed(13, i)).like_pairs {
            let want = reference_like_match(&pattern, &text);
            assert_eq!(valuenet_storage::like_match(&pattern, &text), want, "{pattern:?} {text:?}");
            matched += usize::from(want);
        }
    }
    assert!(matched > 500, "only {matched} pairs match");
}

#[test]
fn lookup_fuzz_smoke_has_no_failures() {
    let report = run_lookup_fuzz(50, 42);
    assert!(report.failures.is_empty(), "{}", report.failures[0].1);
    assert_eq!(report.counts.lookups, 50 * 12 * (MAX_LOOKUP_DIST + 1));
    assert!(report.counts.hits > 0 && report.counts.like_pairs == 50 * 12);
}
