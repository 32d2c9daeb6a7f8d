//! The README's performance table quotes the checked-in
//! `BENCH_engine.json`: every cell must equal the file's value rounded to
//! the precision the cell shows.  Re-recording the file without
//! regenerating the table fails here.

use std::path::Path;

/// README column header → `BENCH_engine.json` column.
const COLUMNS: [(&str, &str); 5] = [
    ("span cold build", "span cold build"),
    ("sharded cold build", "sharded cold build"),
    ("flat restrict / query", "flat restrict / query (us)"),
    ("warm batch", "engine batch warm"),
    ("warm stitched spanning", "spanning warm stitched"),
];

fn workspace_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The cells of a markdown table row, trimmed, without the outer pipes.
fn cells(line: &str) -> Vec<&str> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

/// The README's performance table: its header cells and its data rows.
fn readme_table(readme: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let section = readme
        .split("\n## Performance")
        .nth(1)
        .expect("README has a Performance section");
    let mut lines = section
        .lines()
        .skip_while(|line| !line.starts_with("| dataset"));
    let header = cells(lines.next().expect("the performance table has a header"));
    let rows = lines
        .skip(1) // the alignment row
        .take_while(|line| line.starts_with('|'))
        .map(|line| cells(line).into_iter().map(String::from).collect())
        .collect();
    (header.into_iter().map(String::from).collect(), rows)
}

/// The numeric value of `column` in the row labelled `label` of a
/// `BENCH_*.json` file (one row object per line, as `Report::to_json`
/// writes it).
fn bench_value(json: &str, label: &str, column: &str) -> f64 {
    let row = json
        .lines()
        .find(|line| line.contains(&format!("{{\"label\": \"{label}\"")))
        .unwrap_or_else(|| panic!("BENCH_engine.json has no row {label}"));
    let key = format!("\"{column}\": ");
    let at = row
        .find(&key)
        .unwrap_or_else(|| panic!("row {label} has no column {column}"))
        + key.len();
    let value = &row[at..];
    let end = value.find([',', '}']).unwrap_or(value.len());
    value[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{label}/{column} is not a number: {e}"))
}

/// A README cell such as `42.5 ms` or `17.0 µs`: its number as written.
fn cell_number(cell: &str) -> &str {
    cell.split_whitespace().next().unwrap_or("")
}

#[test]
fn readme_performance_table_matches_bench_engine_json() {
    let readme = workspace_file("README.md");
    let json = workspace_file("BENCH_engine.json");
    let (header, rows) = readme_table(&readme);
    assert!(!rows.is_empty(), "the performance table has no rows");
    for row in &rows {
        let label = &row[0];
        for (readme_column, json_column) in COLUMNS {
            let i = header
                .iter()
                .position(|h| h == readme_column)
                .unwrap_or_else(|| panic!("the performance table has no column {readme_column}"));
            let shown = cell_number(&row[i]);
            let decimals = shown.split('.').nth(1).map_or(0, str::len);
            let expected = format!("{:.*}", decimals, bench_value(&json, label, json_column));
            assert_eq!(
                shown, expected,
                "README performance table {label}/{readme_column} is stale: \
                 BENCH_engine.json says {expected}"
            );
        }
    }
}
