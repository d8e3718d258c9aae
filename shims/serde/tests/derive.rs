//! The derive's field attributes and the 2-tuple impls, through a
//! render and a parse back.

use serde::{Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Row {
    label: String,
    #[serde(rename = "time_ns")]
    time: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    intervals: Vec<(u64, u64)>,
}

fn round_trip(row: &Row) -> String {
    let text = serde::json::to_string(row);
    let back: Row = serde::json::from_str(&text).unwrap();
    assert_eq!(&back, row);
    text
}

#[test]
fn rename_writes_and_reads_the_new_key() {
    let text = round_trip(&Row {
        label: "trunk".to_string(),
        time: 7,
        note: Some("hot".to_string()),
        intervals: Vec::new(),
    });
    assert_eq!(
        text,
        r#"{"label":"trunk","time_ns":7,"note":"hot","intervals":[]}"#
    );
    let old_key = serde::json::from_str::<Row>(r#"{"label":"x","time":7,"intervals":[]}"#);
    assert!(old_key.is_err(), "the Rust name is not the JSON key");
}

#[test]
fn none_is_skipped_and_reads_back_as_none() {
    let text = round_trip(&Row {
        label: "seg".to_string(),
        time: 0,
        note: None,
        intervals: vec![(1, 2)],
    });
    assert_eq!(text, r#"{"label":"seg","time_ns":0,"intervals":[[1,2]]}"#);
}

#[test]
fn pairs_round_trip_as_two_element_arrays() {
    let pairs: Vec<(u32, String)> = vec![(3, "a".to_string()), (u32::MAX, String::new())];
    let text = serde::json::to_string(&pairs);
    assert_eq!(text, r#"[[3,"a"],[4294967295,""]]"#);
    let back: Vec<(u32, String)> = serde::json::from_str(&text).unwrap();
    assert_eq!(back, pairs);
    for bad in ["[[1]]", "[[1,2,3]]", "[1]"] {
        assert!(
            serde::json::from_str::<Vec<(u64, u64)>>(bad).is_err(),
            "{bad}"
        );
    }
}
