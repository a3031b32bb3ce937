//! The tables `EXPERIMENTS.md` reports cannot drift from the artifacts the
//! experiment binaries write:
//!
//! * Table I matches `results_table1.txt` row for row (and in its overall
//!   line), and its accuracies and overall execution accuracy match
//!   `run_report.json`'s `execution_accuracy` section;
//! * Table II matches `results_table2.txt` row for row (and in its total);
//! * Fig. 10 matches `results_fig10.txt`: each system's mean ± std, the
//!   reported points, and the light − full gap;
//! * the Section V-G error analysis matches `results_error_analysis.txt`;
//! * Fig. 9 matches `results_fig9.txt`: each share, the share of samples
//!   with values and the mean values per value-bearing sample;
//! * the Section V-E coverage matches `results_coverage.txt`: the train
//!   and dev coverage and the four per-class train rates.
//!
//! Regenerating an artifact without updating the prose, or editing the
//! prose by hand, fails here.

use valuenet::obs::json::Json;

fn read(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The text of the `EXPERIMENTS.md` section whose heading starts with
/// `heading`, up to the next `## ` heading.
fn section<'a>(text: &'a str, heading: &str) -> &'a str {
    let start = text.find(heading).unwrap_or_else(|| panic!("no section {heading:?}"));
    let body = &text[start + heading.len()..];
    let end = body.find("\n## ").unwrap_or(body.len());
    &body[..end]
}

/// The trimmed cells of each body row of the first markdown table in
/// `text` (the header and separator rows are skipped).
fn table_rows(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .skip_while(|l| !l.trim_start().starts_with('|'))
        .take_while(|l| l.trim_start().starts_with('|'))
        .skip(2)
        .map(|l| l.trim().trim_matches('|').split('|').map(|c| c.trim().to_string()).collect())
        .collect()
}

/// The number written immediately before `label` on the first line of
/// `text` that contains it, e.g. `66.3` for `"% execution accuracy"` in
/// `"overall: 66.3% execution accuracy"`.
fn number_before(text: &str, label: &str) -> String {
    let line = text
        .lines()
        .find(|l| l.contains(label))
        .unwrap_or_else(|| panic!("no line contains {label:?}"));
    let head = &line[..line.find(label).expect("found above")];
    let start = head.rfind(|c: char| !(c.is_ascii_digit() || c == '.')).map_or(0, |i| i + 1);
    let number = &head[start..];
    assert!(!number.is_empty(), "no number before {label:?} in {line:?}");
    number.to_string()
}

/// The number written immediately after `label` on the first line of
/// `text` that contains it, e.g. `1.36` for `"sample: "` in
/// `"mean per value-bearing sample: 1.36 (paper: 1.33)"`.
fn number_after(text: &str, label: &str) -> String {
    let line = text
        .lines()
        .find(|l| l.contains(label))
        .unwrap_or_else(|| panic!("no line contains {label:?}"));
    let tail = &line[line.find(label).expect("found above") + label.len()..];
    let number: String = tail.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
    assert!(!number.is_empty(), "no number after {label:?} in {line:?}");
    number
}

#[test]
fn table1_matches_results_table1_and_run_report() {
    let doc = read("EXPERIMENTS.md");
    let doc = section(&doc, "## Table I ");
    let artifact = read("results_table1.txt");

    let rows = table_rows(doc);
    let expected = table_rows(&artifact);
    assert_eq!(rows.len(), 4, "Table I has one row per difficulty: {rows:?}");
    assert_eq!(rows, expected, "EXPERIMENTS.md Table I differs from results_table1.txt");
    for label in ["% execution accuracy", "% exact-match"] {
        assert_eq!(
            number_before(doc, label),
            number_before(&artifact, label),
            "EXPERIMENTS.md Table I overall {label:?} differs from results_table1.txt"
        );
    }

    let report = Json::parse(&read("run_report.json")).expect("run_report.json parses");
    let ea = report.get("execution_accuracy").expect("run report has execution_accuracy");
    let overall = ea.get("overall").and_then(Json::as_f64).expect("overall accuracy");
    assert_eq!(
        number_before(doc, "% execution accuracy"),
        format!("{:.1}", 100.0 * overall),
        "EXPERIMENTS.md Table I overall execution accuracy differs from run_report.json"
    );
    let by_difficulty = ea.get("by_difficulty").and_then(Json::as_arr).expect("by_difficulty");
    assert_eq!(by_difficulty.len(), rows.len(), "run_report.json difficulty count");
    for (row, entry) in rows.iter().zip(by_difficulty) {
        let field = |k: &str| entry.get(k).unwrap_or_else(|| panic!("{row:?}: no {k}"));
        assert_eq!(field("difficulty").as_str(), Some(row[0].as_str()));
        let accuracy = field("accuracy").as_f64().expect("accuracy is a number");
        let total = field("total").as_f64().expect("total is a number");
        assert_eq!(
            (format!("{accuracy:.2}"), format!("{total}")),
            (row[1].clone(), row[2].clone()),
            "EXPERIMENTS.md Table I row {} differs from run_report.json",
            row[0]
        );
    }
}

#[test]
fn table2_matches_results_table2() {
    let doc = read("EXPERIMENTS.md");
    let doc = section(&doc, "## Table II ");
    let artifact = read("results_table2.txt");

    let mut rows = table_rows(doc);
    let total = rows.pop().expect("Table II ends with its total row");
    assert_eq!(total[0], "**total**", "last Table II row is the total: {total:?}");
    let expected = table_rows(&artifact);
    assert_eq!(rows.len(), 5, "Table II has one row per stage: {rows:?}");
    // EXPERIMENTS.md adds the paper's std column after the artifact's four.
    let shared: Vec<&[String]> = rows.iter().map(|r| &r[..r.len().min(4)]).collect();
    let expected: Vec<&[String]> = expected.iter().map(Vec::as_slice).collect();
    assert_eq!(shared, expected, "EXPERIMENTS.md Table II differs from results_table2.txt");

    let artifact_total: f64 =
        number_before(&artifact, " ms per query").parse().expect("total is a number");
    assert_eq!(
        total[1].trim_matches('*'),
        format!("{artifact_total:.1}"),
        "EXPERIMENTS.md Table II total differs from results_table2.txt"
    );
}

#[test]
fn fig10_matches_results_fig10() {
    let doc = read("EXPERIMENTS.md");
    let doc = section(&doc, "## Fig. 10 ");
    let artifact = read("results_fig10.txt");

    // The artifact splits mean and std into two columns and marks reported
    // points in the system name; EXPERIMENTS.md writes `mean ± std` (bold
    // for ValueNet) and marks reported points in the paper column.
    let expected: Vec<Vec<String>> = table_rows(&artifact)
        .into_iter()
        .map(|r| match r[0].strip_suffix(" (reported point)") {
            Some(system) => vec![system.into(), "—".into(), format!("{} (reported point)", r[3])],
            None => vec![r[0].clone(), format!("{} ± {}", r[1], r[2]), r[3].clone()],
        })
        .collect();
    let rows: Vec<Vec<String>> = table_rows(doc)
        .into_iter()
        .map(|r| r.iter().map(|c| c.trim_matches('*').to_string()).collect())
        .collect();
    assert_eq!(rows.len(), 7, "Fig. 10 has four systems and three reported points: {rows:?}");
    assert_eq!(rows, expected, "EXPERIMENTS.md Fig. 10 differs from results_fig10.txt");

    let gap = artifact.rsplit("gap = ").next().expect("split yields at least one piece");
    assert_eq!(
        number_before(doc, " points**"),
        number_before(gap, " points"),
        "EXPERIMENTS.md Fig. 10 light − full gap differs from results_fig10.txt"
    );
}

#[test]
fn error_analysis_matches_results_error_analysis() {
    let doc = read("EXPERIMENTS.md");
    let doc = section(&doc, "## Section V-G ");
    let artifact = read("results_error_analysis.txt");

    let rows = table_rows(doc);
    // EXPERIMENTS.md keeps the artifact's share and paper columns, not its
    // failure counts.
    let expected: Vec<Vec<String>> =
        table_rows(&artifact).into_iter().map(|r| vec![r[0].clone(), r[2].clone(), r[3].clone()]).collect();
    assert_eq!(rows.len(), 4, "the error analysis has one row per cause: {rows:?}");
    assert_eq!(rows, expected, "EXPERIMENTS.md error analysis differs from results_error_analysis.txt");
}

#[test]
fn fig9_matches_results_fig9() {
    let doc = read("EXPERIMENTS.md");
    let doc = section(&doc, "## Fig. 9 ");
    let artifact = read("results_fig9.txt");

    // EXPERIMENTS.md keeps the artifact's share and paper columns, not its
    // sample counts.
    let rows = table_rows(doc);
    let expected: Vec<Vec<String>> = table_rows(&artifact)
        .into_iter()
        .map(|r| vec![r[0].clone(), r[2].clone(), r[3].clone()])
        .collect();
    assert_eq!(rows.len(), 5, "Fig. 9 has one row per value count 0-4: {rows:?}");
    assert_eq!(rows, expected, "EXPERIMENTS.md Fig. 9 differs from results_fig9.txt");
    assert_eq!(
        number_before(doc, "% of samples contain values"),
        number_after(&artifact, "samples contain values ("),
        "EXPERIMENTS.md Fig. 9 share with values differs from results_fig9.txt"
    );
    assert_eq!(
        number_after(doc, "carries "),
        number_after(&artifact, "mean per value-bearing sample: "),
        "EXPERIMENTS.md Fig. 9 mean values per value-bearing sample differs from results_fig9.txt"
    );
}

#[test]
fn coverage_matches_results_coverage() {
    let doc = read("EXPERIMENTS.md");
    let doc = section(&doc, "## Section V-E ");
    let artifact = read("results_coverage.txt");

    let rows = table_rows(doc);
    assert_eq!(rows.len(), 2, "V-E has a train and a dev row: {rows:?}");
    let line = |split: &str| {
        let line = artifact.lines().find(|l| l.starts_with(split));
        line.unwrap_or_else(|| panic!("results_coverage.txt has no {split:?} line"))
    };
    let (train, dev) = (line("train: "), line("dev: "));
    assert_eq!(
        rows[0][1].replace('*', ""),
        format!(
            "{} / {} value-bearing samples = {}%",
            number_after(train, "for "),
            number_after(train, " of "),
            number_after(train, "samples (")
        ),
        "EXPERIMENTS.md V-E train coverage differs from results_coverage.txt"
    );
    assert_eq!(
        rows[1][1],
        format!("{}%", number_after(dev, "samples (")),
        "EXPERIMENTS.md V-E dev coverage differs from results_coverage.txt"
    );

    // The artifact's first table is the train split's per-class rates.
    let prose = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    let classes = table_rows(&artifact);
    assert_eq!(classes.len(), 4, "four value-difficulty classes: {classes:?}");
    for class in classes {
        let rate = format!("{} {}", class[0], class[3]);
        assert!(prose.contains(&rate), "EXPERIMENTS.md V-E lacks the train rate {rate:?}");
    }
}
