//! Code metrics: classes, methods, and non-comment source statements
//! (NCSS) — the units of the paper's Tables 3 and 4 code-distribution
//! studies.
//!
//! NCSS here counts source lines that are neither blank nor comment-only
//! (line `//` comments and block `/* … */` comments, including Rust doc
//! comments). "Classes" counts `struct`/`enum`/`trait` definitions;
//! "methods" counts `fn` items. The counter is deliberately lexical — it
//! measures generated and handwritten sources the same way the paper's
//! NCSS tool measured Java.

/// Aggregated code metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeStats {
    /// `struct` + `enum` + `trait` definitions.
    pub classes: usize,
    /// `fn` items (free functions and methods).
    pub methods: usize,
    /// Non-comment, non-blank source lines.
    pub ncss: usize,
}

impl CodeStats {
    /// Sum two measurements.
    pub fn merge(self, other: CodeStats) -> CodeStats {
        CodeStats {
            classes: self.classes + other.classes,
            methods: self.methods + other.methods,
            ncss: self.ncss + other.ncss,
        }
    }
}

/// Strip comments from a line of code that is already known to be outside
/// a block comment, returning (code_part, now_inside_block_comment).
fn strip_comments(line: &str, mut in_block: bool) -> (String, bool) {
    let mut code = String::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    let mut in_str = false;
    let mut str_delim = b'"';
    while i < bytes.len() {
        if in_block {
            if i + 1 < bytes.len() && bytes[i] == b'*' && bytes[i + 1] == b'/' {
                in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if in_str {
            if bytes[i] == b'\\' {
                i += 2;
                continue;
            }
            if bytes[i] == str_delim {
                in_str = false;
            }
            code.push(bytes[i] as char);
            i += 1;
            continue;
        }
        match bytes[i] {
            b'"' => {
                in_str = true;
                str_delim = b'"';
                code.push('"');
                i += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                in_block = true;
                i += 2;
            }
            c => {
                code.push(c as char);
                i += 1;
            }
        }
    }
    (code, in_block)
}

/// Count metrics over one source text.
pub fn count_source(source: &str) -> CodeStats {
    let mut stats = CodeStats::default();
    let mut in_block = false;
    for line in source.lines() {
        let (code, next_block) = strip_comments(line, in_block);
        in_block = next_block;
        let code = code.trim();
        if code.is_empty() {
            continue;
        }
        stats.ncss += 1;
        // Item counting on the comment-stripped code.
        for pat in ["struct ", "enum ", "trait "] {
            stats.classes += count_item(code, pat);
        }
        stats.methods += count_item(code, "fn ");
    }
    stats
}

/// Count keyword-led item definitions in a code line: the keyword at the
/// start of the line or preceded by a non-identifier character (so
/// `my_struct` doesn't count, but `pub struct Foo` and `pub(crate) fn` do).
fn count_item(code: &str, pat: &str) -> usize {
    let mut count = 0;
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let abs = start + pos;
        let ok_before = abs == 0 || {
            let prev = code.as_bytes()[abs - 1];
            !prev.is_ascii_alphanumeric() && prev != b'_'
        };
        if ok_before {
            count += 1;
        }
        start = abs + pat.len();
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_comment_lines_do_not_count() {
        let src = "\n// comment\n   \nlet x = 1;\n/* block */\n";
        assert_eq!(count_source(src).ncss, 1);
    }

    #[test]
    fn multiline_block_comments() {
        let src = "/*\nall\nof this\n*/\nlet x = 1; /* trailing\nstill comment */ let y = 2;\n";
        let s = count_source(src);
        assert_eq!(s.ncss, 2); // `let x` line and `let y` line
    }

    #[test]
    fn doc_comments_do_not_count() {
        let src = "/// docs\n//! module docs\npub fn f() {}\n";
        let s = count_source(src);
        assert_eq!(s.ncss, 1);
        assert_eq!(s.methods, 1);
    }

    #[test]
    fn classes_and_methods_counted() {
        let src = r#"
pub struct A { x: u32 }
enum B { X, Y }
trait C {
    fn required(&self);
}
impl A {
    pub fn new() -> A { A { x: 0 } }
    fn helper(&self) {}
}
"#;
        let s = count_source(src);
        assert_eq!(s.classes, 3);
        assert_eq!(s.methods, 3);
    }

    #[test]
    fn identifiers_containing_keywords_do_not_count() {
        let src = "let my_struct = restructure(defn);\nlet info = 1;\n";
        let s = count_source(src);
        assert_eq!(s.classes, 0);
        assert_eq!(s.methods, 0);
        assert_eq!(s.ncss, 2);
    }

    #[test]
    fn string_literals_hide_comment_markers() {
        let src = "let s = \"// not a comment\";\nlet t = \"/* nope */\";\n";
        let s = count_source(src);
        assert_eq!(s.ncss, 2);
    }

    #[test]
    fn ncss_invariant_under_comment_insertion() {
        let base = "pub fn f() {\n    let x = 1;\n    x + 1\n}\n";
        let commented =
            "// header\npub fn f() {\n    // explain\n    let x = 1;\n    /* why */\n    x + 1\n}\n";
        assert_eq!(count_source(base), count_source(commented));
    }

    #[test]
    fn merge_and_count_files() {
        let a = "struct A;\nfn f() {}\n";
        let b = "struct B;\n";
        let merged = count_source(a).merge(count_source(b));
        assert_eq!(merged.classes, 2);
        assert_eq!(merged.methods, 1);
        assert_eq!(merged.ncss, 3);
    }
}
