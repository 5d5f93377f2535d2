//! CLI plumbing shared by the workspace binaries: the `--metrics <path>` /
//! `--metrics-stdout` target, the [`number`] option-value parser and the
//! [`help_requested`] check.

use std::fs::File;
use std::io::{BufWriter, Write};

use crate::registry::Registry;

/// Where a binary streams its JSONL telemetry events, as parsed from
/// `--metrics <path>` or `--metrics-stdout`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsTarget {
    /// `--metrics <path>`: a file, created (or truncated) when opened.
    File(String),
    /// `--metrics-stdout`: standard output.
    Stdout,
}

impl MetricsTarget {
    /// Opens the sink and returns a [`Registry`] streaming into it. A file
    /// sink is buffered; call [`Registry::flush`] before exiting.
    ///
    /// # Errors
    ///
    /// A message naming the path when the file cannot be created.
    pub fn open(&self) -> Result<Registry, String> {
        let sink: Box<dyn Write + Send> = match self {
            MetricsTarget::File(path) => {
                Box::new(BufWriter::new(File::create(path).map_err(|error| {
                    format!("cannot create metrics stream {path}: {error}")
                })?))
            }
            MetricsTarget::Stdout => Box::new(std::io::stdout()),
        };
        Ok(Registry::with_sink(sink))
    }
}

/// Parses the value of `flag` as a number, with an error naming both.
///
/// # Errors
///
/// A message naming `flag` and `value` when `value` is not a number of
/// type `T`.
pub fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got `{value}`"))
}

/// Whether the command line asks for the usage text: `--help` or `-h`
/// anywhere in `args`. The binaries check it before parsing anything else,
/// print their usage line to standard output and exit with status 0.
pub fn help_requested(args: impl IntoIterator<Item = String>) -> bool {
    args.into_iter().any(|arg| arg == "--help" || arg == "-h")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_is_requested_by_either_spelling_anywhere() {
        let args = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert!(help_requested(args(&["--help"])));
        assert!(help_requested(args(&["--seeds", "2", "-h"])));
        assert!(!help_requested(args(&[])));
        assert!(!help_requested(args(&["--helpful", "-hh", "help"])));
    }

    #[test]
    fn metrics_flag_streams_to_the_file() {
        let dir = std::env::temp_dir().join("isopredict-obs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let target = MetricsTarget::File(path.to_str().unwrap().to_string());
        {
            let registry = target.open().expect("registry");
            registry.obs().span("phase").finish();
            registry.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = crate::event::validate_stream(&text).expect("valid stream");
        assert_eq!(summary.spans_finished, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uncreatable_metrics_file_is_an_error() {
        // A file cannot be created below a regular file.
        let file = std::env::temp_dir().join(format!("obs-cli-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let path = file.join("events.jsonl");
        let error = MetricsTarget::File(path.to_str().unwrap().to_string())
            .open()
            .err()
            .expect("cannot create a file below a file");
        std::fs::remove_file(&file).unwrap();
        assert!(error.contains("cannot create metrics stream"), "{error}");
    }
}
