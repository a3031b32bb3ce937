//! Criterion bench of the inverted-index lookups behind Table II's "Value
//! lookup" stage, across database sizes.
//!
//! The similarity queries span the two regimes of the length block: the
//! 9-character "Lufthansa" skips most number spellings by length alone,
//! while 4–6-character queries such as "Rome" and "Frence" share their
//! lengths with the numbers and lean on the character-set filter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use valuenet_dataset::all_domains;
use valuenet_storage::Database;

fn flights_db(rows: usize) -> Database {
    let mut rng = SmallRng::seed_from_u64(7);
    let spec = all_domains(&mut rng, rows).into_iter().nth(1).expect("flights domain");
    Database::with_rows(spec.schema.clone(), spec.rows.clone())
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("value_lookup");
    for rows in [100usize, 1000, 4000] {
        let db = flights_db(rows);
        group.bench_with_input(BenchmarkId::new("find_exact", rows), &db, |b, db| {
            b.iter(|| db.index().find_exact("JFK"))
        });
        group.bench_with_input(BenchmarkId::new("find_similar_d2", rows), &db, |b, db| {
            b.iter(|| db.index().find_similar("Lufthansa", 2))
        });
        group.bench_with_input(BenchmarkId::new("find_similar_rome_d1", rows), &db, |b, db| {
            b.iter(|| db.index().find_similar("Rome", 1))
        });
        group.bench_with_input(BenchmarkId::new("find_similar_frence_d2", rows), &db, |b, db| {
            b.iter(|| db.index().find_similar("Frence", 2))
        });
        group.bench_with_input(BenchmarkId::new("find_like", rows), &db, |b, db| {
            b.iter(|| db.index().find_like_anywhere("%-08-%"))
        });
    }
    group.finish();

    // Index construction cost (amortised once per database).
    let mut group = c.benchmark_group("index_build");
    for rows in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            let mut rng = SmallRng::seed_from_u64(7);
            let spec = all_domains(&mut rng, rows).into_iter().nth(1).unwrap();
            b.iter(|| Database::with_rows(spec.schema.clone(), spec.rows.clone()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
