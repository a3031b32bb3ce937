//! Criterion bench of the SQL executor (the Query-Execution stage).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use valuenet_dataset::all_domains;
use valuenet_exec::execute;
use valuenet_sql::parse_select;
use valuenet_storage::Database;

fn pets_db(rows: usize) -> Database {
    let mut rng = SmallRng::seed_from_u64(3);
    let spec = all_domains(&mut rng, rows).into_iter().next().expect("student_pets domain");
    Database::with_rows(spec.schema.clone(), spec.rows.clone())
}

fn bench_executor(c: &mut Criterion) {
    let queries = [
        ("filter_scan", "SELECT name FROM student WHERE age > 20"),
        (
            "three_way_join",
            "SELECT count(*) FROM student AS T1 JOIN has_pet AS T2 ON T1.stu_id = T2.stu_id \
             JOIN pet AS T3 ON T2.pet_id = T3.pet_id WHERE T3.pet_type = 'dog'",
        ),
        (
            "group_having_order",
            "SELECT home_country, count(*) FROM student GROUP BY home_country \
             HAVING count(*) > 1 ORDER BY count(*) DESC",
        ),
        (
            "nested_subquery",
            "SELECT name FROM student WHERE age > (SELECT avg(age) FROM student)",
        ),
        (
            "set_operation",
            "SELECT home_country FROM student WHERE age > 22 \
             EXCEPT SELECT home_country FROM student WHERE age < 20",
        ),
    ];
    for rows in [50usize, 400, 2000] {
        let db = pets_db(rows);
        let mut group = c.benchmark_group(format!("executor_{rows}rows"));
        for (name, sql) in &queries {
            let stmt = parse_select(sql).unwrap();
            group.bench_with_input(BenchmarkId::from_parameter(name), &stmt, |b, stmt| {
                b.iter(|| execute(&db, stmt).unwrap())
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
