//! The textual lint rules. Deliberately simple: line-oriented, no
//! parsing, conservative about test code (everything after a
//! `#[cfg(test)]` in a file is ignored — workspace convention keeps
//! test modules at the bottom of the file).

use std::fmt;
use std::path::Path;

use pario_check::LockLevel;

/// One rule violation at a file location.
#[derive(Debug)]
pub struct Finding {
    /// Rule id: "R1" (std-sync ban), "R2" (unwrap policy), "R3"
    /// (lock order), "R4" (raw-atomic ban), "R5" (Relaxed
    /// justification).
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Ranked locks of DESIGN.md §8, as `receiver.method` call-site
/// patterns, each with its `LockLevel`: the name and rank come from the
/// enum, so the table cannot disagree with the checker. The scan flags
/// a function that acquires a lower-ranked lock after a higher-ranked
/// one. The three range-lock tables share one type
/// (`pario_fs::RangeLocks`), so each is ranked where it is taken: the
/// GDA byte ranges through a server file entry's `ranges`, a file's
/// logical blocks in `RawFile::write_span`, its device rows through
/// `RawFile::lock_rows`.
const RANKED_LOCKS: &[(&str, LockLevel)] = &[
    ("replies.lock(", LockLevel::NetReplies),
    ("wire.lock(", LockLevel::NetSend),
    ("ranges.acquire", LockLevel::RangeLock),
    ("alloc.lock(", LockLevel::FsAlloc),
    ("blocks.acquire(", LockLevel::FsRmw),
    ("lock_rows(", LockLevel::FsStripe),
    ("spare.lock(", LockLevel::FsStaging),
    ("frames.lock(", LockLevel::VolumeCache),
    ("journal.lock(", LockLevel::FsJournal),
    ("board.lock(", LockLevel::FsHealth),
    ("transfers.lock(", LockLevel::FsLanding),
    ("device.lock(", LockLevel::DiskDevice),
    ("queue.lock(", LockLevel::DiskQueue),
];

/// R1: request-path code must build on the `pario-check` primitives.
const BANNED_SYNC: &[(&str, &str)] = &[
    (
        "std::sync::Mutex",
        "use pario_check::Mutex (model-checkable)",
    ),
    (
        "std::sync::RwLock",
        "use pario_check::RwLock (model-checkable)",
    ),
    (
        "std::sync::Condvar",
        "use pario_check::Condvar (model-checkable)",
    ),
    ("parking_lot", "use the pario_check locks (model-checkable)"),
    (
        "std::thread::spawn(",
        "use a named std::thread::Builder worker (or pario_check::spawn in models)",
    ),
];

/// Lint one file's text; returns every violation found.
pub fn lint_file(path: &Path, text: &str) -> Vec<Finding> {
    let file = path.display().to_string();
    let mut out = Vec::new();
    // Highest ranked-lock acquisition seen so far in the current
    // function: (rank, name, line).
    let mut fn_high: Option<(u8, &'static str, usize)> = None;
    let mut prev_line = "";

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        if raw.contains("#[cfg(test)]") {
            // Convention: test modules close out the file.
            break;
        }
        let line = strip_comment(raw);
        let code = line.trim();
        if code.is_empty() {
            // Comment-only lines still become `prev_line` so a
            // full-line `// invariant:` waives the line after it.
            prev_line = raw;
            continue;
        }
        // A new fn starts a fresh acquisition sequence. (Textual: good
        // enough for the flat impl blocks this workspace writes.)
        if code.starts_with("fn ")
            || code.starts_with("pub fn ")
            || code.starts_with("pub(crate) fn ")
        {
            fn_high = None;
        }

        for (pat, fix) in BANNED_SYNC {
            if line.contains(pat) {
                out.push(Finding {
                    rule: "R1",
                    file: file.clone(),
                    line: lineno,
                    message: format!(
                        "`{}` is banned on the request path: {fix}",
                        pat.trim_end_matches('(')
                    ),
                });
            }
        }

        let waived = raw.contains("// invariant:")
            || (strip_comment(prev_line).trim().is_empty() && prev_line.contains("// invariant:"));
        if !waived && (line.contains(".unwrap()") || line.contains(".expect(")) {
            out.push(Finding {
                rule: "R2",
                file: file.clone(),
                line: lineno,
                message: "`.unwrap()`/`.expect()` in library code: return an error, \
                          or state the invariant in a `// invariant:` comment"
                    .to_string(),
            });
        }

        // R4: raw atomic *types* are banned; `std::sync::atomic::Ordering`
        // alone stays legal (the wrappers take the std Ordering enum).
        if line.contains("std::sync::atomic") && line.contains("Atomic") {
            out.push(Finding {
                rule: "R4",
                file: file.clone(),
                line: lineno,
                message: "raw `std::sync::atomic` type on the request path: use the \
                          pario_check atomics so the happens-before detector sees \
                          every operation"
                    .to_string(),
            });
        }

        // R5: a Relaxed ordering propagates no happens-before edge, so
        // each use must say why that is sound.
        let ordered = raw.contains("// ordering:")
            || (strip_comment(prev_line).trim().is_empty() && prev_line.contains("// ordering:"));
        if !ordered && line.contains("Ordering::Relaxed") {
            out.push(Finding {
                rule: "R5",
                file: file.clone(),
                line: lineno,
                message: "`Ordering::Relaxed` synchronizes nothing: justify it with a \
                          `// ordering:` comment on the same or the preceding line \
                          (or use Acquire/Release/SeqCst)"
                    .to_string(),
            });
        }

        let order_waived = raw.contains("// lock-order:") || prev_line.contains("// lock-order:");
        for &(pat, level) in RANKED_LOCKS {
            if !line.contains(pat) {
                continue;
            }
            let (name, rank) = (level.name(), level.rank());
            if let Some((held_rank, held_name, held_line)) = fn_high {
                if rank <= held_rank && name != held_name && !order_waived {
                    out.push(Finding {
                        rule: "R3",
                        file: file.clone(),
                        line: lineno,
                        message: format!(
                            "acquires `{name}` (rank {rank}) after `{held_name}` \
                             (rank {held_rank}, line {held_line}); the hierarchy in \
                             DESIGN.md §8 ascends. If the earlier guard is already \
                             dropped, waive with `// lock-order: released above`"
                        ),
                    });
                }
            }
            if fn_high.is_none_or(|(r, _, _)| rank > r) {
                fn_high = Some((rank, name, lineno));
            }
        }
        prev_line = raw;
    }
    out
}

/// Drop a trailing `//` comment (string literals with `//` in them are
/// rare enough in this workspace to ignore).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(text: &str) -> Vec<Finding> {
        lint_file(Path::new("t.rs"), text)
    }

    #[test]
    fn bans_std_sync_and_raw_spawn() {
        let v = lint(
            "use std::sync::Mutex;\nuse parking_lot::RwLock;\nlet h = std::thread::spawn(|| {});\n",
        );
        assert_eq!(v.iter().filter(|f| f.rule == "R1").count(), 3);
    }

    #[test]
    fn unwrap_needs_invariant_comment() {
        assert_eq!(lint("let x = y.unwrap();\n").len(), 1);
        assert!(
            lint("// invariant: y was just inserted\nlet x = y.unwrap();\n").is_empty(),
            "a full-line invariant comment waives the next line"
        );
        assert!(lint("let x = y.unwrap(); // invariant: just inserted\n").is_empty());
    }

    #[test]
    fn lock_order_must_ascend() {
        let bad = "fn f(&self) {\n let a = self.state.blocks.acquire(0, 1);\n let b = self.vol.alloc.lock();\n}\n";
        let v = lint(bad);
        assert_eq!(v.iter().filter(|f| f.rule == "R3").count(), 1);
        let good = "fn f(&self) {\n let b = self.vol.alloc.lock();\n let a = self.state.blocks.acquire(0, 1);\n}\n";
        assert!(lint(good).iter().all(|f| f.rule != "R3"));
    }

    #[test]
    fn range_lock_tables_rank_at_their_call_sites() {
        let bad = "fn f(&self) {\n let r = f.lock_rows(0..4);\n let g = self.entry.ranges.acquire(0, 8);\n}\n";
        let v = lint(bad);
        assert_eq!(v.iter().filter(|f| f.rule == "R3").count(), 1);
        let good = "fn f(&self) {\n let t = self.entry.ranges.acquire_ticket(0, 8);\n let r = f.lock_rows(0..4);\n}\n";
        assert!(lint(good).iter().all(|f| f.rule != "R3"));
    }

    #[test]
    fn the_io_node_queue_is_a_leaf_above_the_device() {
        let bad = "fn f(&self) {\n let q = self.queue.lock();\n let d = self.device.lock();\n}\n";
        let v = lint(bad);
        assert_eq!(v.iter().filter(|f| f.rule == "R3").count(), 1);
        let good = "fn f(&self) {\n let d = self.device.lock();\n let q = self.queue.lock();\n}\n";
        assert!(lint(good).iter().all(|f| f.rule != "R3"));
    }

    #[test]
    fn raw_atomics_are_banned_but_ordering_import_is_not() {
        let v = lint("use std::sync::atomic::{AtomicU64, Ordering};\n");
        assert_eq!(v.iter().filter(|f| f.rule == "R4").count(), 1);
        let v = lint("let b = std::sync::atomic::AtomicBool::new(false);\n");
        assert_eq!(v.iter().filter(|f| f.rule == "R4").count(), 1);
        assert!(
            lint("use std::sync::atomic::Ordering;\n").is_empty(),
            "importing just the Ordering enum is legal"
        );
    }

    #[test]
    fn relaxed_needs_ordering_comment() {
        let v = lint("let x = n.load(Ordering::Relaxed);\n");
        assert_eq!(v.iter().filter(|f| f.rule == "R5").count(), 1);
        assert!(
            lint("let x = n.load(Ordering::Relaxed); // ordering: monotonic counter\n").is_empty()
        );
        assert!(
            lint("// ordering: stats only, no reader depends on it\nlet x = n.load(Ordering::Relaxed);\n")
                .is_empty(),
            "a full-line ordering comment waives the next line"
        );
        assert!(lint("let x = n.load(Ordering::Acquire);\n").is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let v = lint("fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap(); }\n}\n");
        assert!(v.is_empty());
    }
}
