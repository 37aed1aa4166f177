//! A comment- and string-aware line model of one Rust source file.
//!
//! Every rule in this crate is a token scan, and token scans lie when
//! they match inside string literals, comments, or `#[cfg(test)]`
//! regions. [`SourceModel`] pre-computes, per line:
//!
//! * `code` — the line with `//` comments removed, `/* */` block
//!   comments blanked (nesting respected, across lines), string-literal
//!   *contents* blanked (quotes kept, raw strings and escapes handled),
//!   and char-literal contents blanked (lifetimes left alone). Braces
//!   and tokens surviving in `code` are real code.
//! * `in_test` — whether the line sits inside a `#[cfg(test)]` (or
//!   `#[cfg(all(test, ...))]`) item, tracked by brace depth over the
//!   blanked code.
//!
//! Rules match tokens against `code`, report `path:line` from the model,
//! and consult the *raw* lines for `// lint: allow(...)` markers (the
//! markers live in comments, which `code` no longer has).

/// One line of the file, raw and in blanked-code form.
#[derive(Debug)]
pub struct LineInfo {
    /// The line exactly as written.
    pub raw: String,
    /// The line with comments removed and literal contents blanked.
    pub code: String,
    /// Whether the line is inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// The parsed model of one source file. Lines are 0-indexed internally;
/// every rendered location is 1-based `path:line`.
#[derive(Debug)]
pub struct SourceModel {
    path: String,
    lines: Vec<LineInfo>,
}

impl SourceModel {
    /// Parses `text` into the line model. `path` is stored verbatim and
    /// only used for locations and path-scoped rules; it does not need
    /// to exist on disk.
    pub fn parse(path: &str, text: &str) -> SourceModel {
        let code_lines = blank_noncode(text);
        let mut lines = Vec::with_capacity(code_lines.len());
        // Track #[cfg(test)] regions by brace depth over blanked code,
        // handling the bodyless-item case (`#[cfg(test)] use foo;`)
        // where the attribute must not swallow the rest of the file.
        let mut test_depth: Option<i32> = None;
        let mut pending_cfg_test = false;
        for (raw, code) in text.lines().zip(code_lines) {
            let mut in_test = false;
            if let Some(depth) = test_depth.as_mut() {
                in_test = true;
                *depth += brace_delta(&code);
                if *depth <= 0 {
                    test_depth = None;
                }
            } else if pending_cfg_test {
                in_test = true;
                let delta = brace_delta(&code);
                if delta > 0 {
                    test_depth = Some(delta);
                    pending_cfg_test = false;
                } else if code.contains(';') {
                    // `#[cfg(test)] use ...;` — a bodyless item.
                    pending_cfg_test = false;
                }
            } else if is_cfg_test_attr(raw.trim()) {
                in_test = true;
                pending_cfg_test = true;
            }
            lines.push(LineInfo {
                raw: raw.to_string(),
                code,
                in_test,
            });
        }
        SourceModel {
            path: path.to_string(),
            lines,
        }
    }

    /// The path the model was parsed under.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The parsed lines, in file order.
    pub fn lines(&self) -> &[LineInfo] {
        &self.lines
    }

    /// The 1-based `path:line` location of line index `idx`.
    pub fn location(&self, idx: usize) -> String {
        format!("{}:{}", self.path, idx + 1)
    }

    /// Whether line `idx` carries `marker` on itself or on the line
    /// directly above — the suppression contract for
    /// `// lint: allow(...)` markers. Checked against raw lines: the
    /// markers live in comments.
    pub fn marked(&self, idx: usize, marker: &str) -> bool {
        self.lines[idx].raw.contains(marker)
            || (idx > 0 && self.lines[idx - 1].raw.contains(marker))
    }
}

/// Whether a trimmed line is a `cfg` attribute gating on `test` —
/// `#[cfg(test)]` itself or a compound like
/// `#[cfg(all(test, feature = "..."))]`.
fn is_cfg_test_attr(trimmed: &str) -> bool {
    trimmed.starts_with("#[cfg(") && contains_word(trimmed, "test")
}

/// Whether `hay` contains `needle` delimited by non-identifier chars.
fn contains_word(hay: &str, needle: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let after_ok =
            end == bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Net brace-depth change of one *blanked* code line. Strings are
/// already blanked, so this is a plain count.
pub fn brace_delta(code: &str) -> i32 {
    let mut delta = 0i32;
    for b in code.bytes() {
        match b {
            b'{' => delta += 1,
            b'}' => delta -= 1,
            _ => {}
        }
    }
    delta
}

/// Lexer state carried across lines while blanking.
enum Blank {
    /// Plain code.
    Code,
    /// Inside a string literal; `raw_hashes` is `Some(n)` for a raw
    /// string closed by `"` + n `#`s, `None` for an ordinary
    /// (escape-processing) string.
    Str { raw_hashes: Option<usize> },
    /// Inside a (possibly nested) block comment.
    Block(u32),
}

/// Produces per-line `code` strings: comments gone, literal contents
/// blanked to spaces (delimiters kept so columns stay meaningful).
fn blank_noncode(text: &str) -> Vec<String> {
    let mut st = Blank::Code;
    let mut out = Vec::new();
    for line in text.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut code = String::with_capacity(line.len());
        let mut i = 0;
        while i < chars.len() {
            match st {
                Blank::Block(ref mut depth) => {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        *depth -= 1;
                        if *depth == 0 {
                            st = Blank::Code;
                        }
                        code.push_str("  ");
                        i += 2;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        *depth += 1;
                        code.push_str("  ");
                        i += 2;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                Blank::Str { raw_hashes: None } => {
                    if chars[i] == '\\' {
                        // Skip the escaped char (a `\` at end of line is
                        // a line continuation: stay in the string).
                        code.push_str("  ");
                        i += 2;
                    } else if chars[i] == '"' {
                        code.push('"');
                        st = Blank::Code;
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                Blank::Str {
                    raw_hashes: Some(n),
                } => {
                    if chars[i] == '"'
                        && chars[i + 1..].iter().take(n).filter(|c| **c == '#').count() == n
                    {
                        code.push('"');
                        for _ in 0..n {
                            code.push('#');
                        }
                        st = Blank::Code;
                        i += 1 + n;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                Blank::Code => match chars[i] {
                    '/' if chars.get(i + 1) == Some(&'/') => break, // rest is comment
                    '/' if chars.get(i + 1) == Some(&'*') => {
                        st = Blank::Block(1);
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        st = Blank::Str {
                            raw_hashes: raw_string_hashes(&chars, i),
                        };
                        code.push('"');
                        i += 1;
                    }
                    '\'' => {
                        // Char literal vs lifetime.
                        if let Some(len) = char_literal_len(&chars, i) {
                            code.push('\'');
                            for _ in 0..len - 2 {
                                code.push(' ');
                            }
                            code.push('\'');
                            i += len;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    }
                    c => {
                        code.push(c);
                        i += 1;
                    }
                },
            }
        }
        out.push(code);
    }
    out
}

/// If the `"` at `chars[at]` opens a raw string (`r"`, `r#"`, `br#"`,
/// ...), the number of closing `#`s; `None` for an ordinary string.
fn raw_string_hashes(chars: &[char], at: usize) -> Option<usize> {
    let mut j = at;
    let mut hashes = 0usize;
    while j > 0 && chars[j - 1] == '#' {
        hashes += 1;
        j -= 1;
    }
    if j == 0 || chars[j - 1] != 'r' {
        return None;
    }
    j -= 1;
    if j > 0 && chars[j - 1] == 'b' {
        j -= 1;
    }
    // `r` must start the token — `for"x"` is not a raw string.
    let prev_is_ident = j > 0 && (chars[j - 1].is_ascii_alphanumeric() || chars[j - 1] == '_');
    if prev_is_ident {
        None
    } else {
        Some(hashes)
    }
}

/// If the `'` at `chars[at]` opens a char literal, its total length in
/// chars (delimiters included); `None` when it is a lifetime.
fn char_literal_len(chars: &[char], at: usize) -> Option<usize> {
    match chars.get(at + 1)? {
        '\\' => {
            // `'\n'`, `'\''`, `'\\'` — or `'\u{1F600}'`.
            if chars.get(at + 2) == Some(&'u') && chars.get(at + 3) == Some(&'{') {
                let close = chars[at + 4..].iter().position(|c| *c == '\'')?;
                Some(close + 5)
            } else if chars.get(at + 3) == Some(&'\'') {
                Some(4)
            } else {
                None
            }
        }
        _ => {
            if chars.get(at + 2) == Some(&'\'') {
                Some(3)
            } else {
                None // `'a` in `<'a>`: a lifetime
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(text: &str) -> Vec<String> {
        SourceModel::parse("x.rs", text)
            .lines()
            .iter()
            .map(|l| l.code.clone())
            .collect()
    }

    #[test]
    fn line_comments_and_doc_comments_are_removed() {
        let c = codes("let x = 1; // .unwrap() here\n/// doc .expect( too\nlet y = 2;\n");
        assert_eq!(c[0], "let x = 1; ");
        assert_eq!(c[1], "");
        assert_eq!(c[2], "let y = 2;");
    }

    #[test]
    fn string_contents_are_blanked_but_quotes_survive() {
        let c = codes("let s = \"call .unwrap() now\";\n");
        assert!(!c[0].contains(".unwrap()"));
        assert!(c[0].contains("let s = \""));
        assert!(c[0].ends_with("\";"));
    }

    #[test]
    fn escapes_inside_strings_do_not_end_them() {
        let c = codes("let s = \"a\\\"b\"; y.unwrap();\n");
        assert!(c[0].contains(".unwrap()"), "{c:?}");
        assert_eq!(
            c[0], "let s = \"    \"; y.unwrap();",
            "contents blanked: {c:?}"
        );
    }

    #[test]
    fn block_comments_span_lines_and_nest() {
        let c = codes("a(); /* x.unwrap()\n /* nested */ still comment\n*/ b();\n");
        assert!(c[0].starts_with("a(); "));
        assert!(!c[0].contains("unwrap"));
        assert!(!c[1].contains("still"));
        assert!(c[2].ends_with("b();"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let c = codes("let s = r#\"y.unwrap() \"inner\" \"#; z.unwrap();\n");
        let hits = c[0].matches(".unwrap()").count();
        assert_eq!(hits, 1, "only the code outside the raw string: {c:?}");
    }

    #[test]
    fn char_literals_blank_but_lifetimes_survive() {
        let c = codes("fn f<'a>(x: &'a str) { m('{', '\\''); }\n");
        assert!(c[0].contains("<'a>"), "{c:?}");
        // The `{` and escaped-quote char literals must not disturb
        // brace or string tracking.
        assert_eq!(brace_delta(&c[0]), 0, "{c:?}");
    }

    #[test]
    fn cfg_test_regions_are_marked_including_compound_cfg() {
        let m = SourceModel::parse(
            "x.rs",
            "fn f() {}\n#[cfg(all(test, feature = \"interleave_check\"))]\nmod tests {\n    fn g() { y.unwrap(); }\n}\nfn h() {}\n",
        );
        let flags: Vec<bool> = m.lines().iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_bodyless_item_does_not_swallow_the_file() {
        let m = SourceModel::parse(
            "x.rs",
            "#[cfg(test)]\nuse foo::bar;\nfn f() { y.unwrap(); }\n",
        );
        assert!(!m.lines()[2].in_test);
    }

    #[test]
    fn cfg_feature_without_test_is_not_a_test_region() {
        let m = SourceModel::parse(
            "x.rs",
            "#[cfg(feature = \"interleave_check\")]\npub mod check;\nfn f() {}\n",
        );
        assert!(m.lines().iter().all(|l| !l.in_test), "{m:?}");
    }

    #[test]
    fn markers_are_found_on_same_or_previous_raw_line() {
        let m = SourceModel::parse(
            "x.rs",
            "// lint: allow(unwrap) — reason\nlet x = y.unwrap();\nlet z = w.unwrap();\n",
        );
        assert!(m.marked(1, "lint: allow(unwrap)"));
        assert!(!m.marked(2, "lint: allow(unwrap)"));
    }

    #[test]
    fn format_string_braces_do_not_disturb_depth() {
        let c = codes("fn f() { format!(\"{{x}} {}\", 1); }\n");
        assert_eq!(brace_delta(&c[0]), 0, "{c:?}");
    }
}
