//! Checks that LANGUAGE.md names every primitive the renamer accepts,
//! so a new primitive or alias cannot go undocumented.

/// The words of LANGUAGE.md's code spans, split at spaces, at
/// parentheses and at the `/` that joins a name to its aliases.
fn documented_names(language: &str) -> Vec<&str> {
    language
        .split('`')
        .skip(1)
        .step_by(2)
        .flat_map(|span| span.split(|c: char| c.is_whitespace() || "/()".contains(c)))
        .filter(|w| !w.is_empty())
        .collect()
}

#[test]
fn every_primitive_name_is_documented() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/LANGUAGE.md");
    let language = std::fs::read_to_string(path).expect("LANGUAGE.md is readable");
    let documented = documented_names(&language);
    let missing: Vec<&str> = lesgs::frontend::Prim::surface_names()
        .map(|(name, _)| name)
        .filter(|name| !documented.contains(name))
        .collect();
    assert!(missing.is_empty(), "LANGUAGE.md does not name {missing:?}");
}
