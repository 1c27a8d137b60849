//! The tuning-service CLI.
//!
//! ```text
//! edgetune-service serve-studies --file studies.json [--work-dir DIR]
//!                                [--json FILE]
//! ```
//!
//! Reads a script-driven submission file (tenants + studies), drives
//! every admitted study to completion under fair rung-granular
//! scheduling, prints the service report JSON on stdout and a summary
//! on stderr. Lives in its own binary (not as an `edgetune`
//! subcommand) because the service crate sits *above* the engine crate
//! in the dependency DAG — the engine's binary cannot link it back.

use std::process::ExitCode;

use edgetune_service::{ServiceOptions, StudyService, SubmissionFile};

struct ServeStudiesArgs {
    file: String,
    work_dir: String,
    json: Option<String>,
}

fn parse_serve_studies_args(
    argv: impl Iterator<Item = String>,
) -> Result<ServeStudiesArgs, String> {
    let mut args = ServeStudiesArgs {
        file: String::new(),
        work_dir: "edgetune-studies".to_string(),
        json: None,
    };
    let mut argv = argv;
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--file" | "-f" => args.file = value(&mut argv, "--file")?,
            "--work-dir" => args.work_dir = value(&mut argv, "--work-dir")?,
            "--json" => args.json = Some(value(&mut argv, "--json")?),
            "--help" | "-h" => {
                println!(
                    "usage: edgetune-service serve-studies --file FILE [--work-dir DIR] \
                     [--json FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if args.file.is_empty() {
        return Err("--file is required (a submission JSON file)".into());
    }
    Ok(args)
}

fn run_serve_studies(args: &ServeStudiesArgs) -> Result<(), String> {
    let file = SubmissionFile::load(std::path::Path::new(&args.file)).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {} studies from {} tenants (work dir: {})...",
        file.studies.len(),
        file.tenants.len(),
        args.work_dir
    );
    let mut service =
        StudyService::new(ServiceOptions::new(&args.work_dir)).map_err(|e| e.to_string())?;
    let report = service.run(&file).map_err(|e| e.to_string())?;
    eprintln!("{}", report.summary());
    let json = report.to_json().map_err(|e| e.to_string())?;
    println!("{json}");
    if let Some(path) = &args.json {
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("service report written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("serve-studies") {
        argv.next();
        let args = match parse_serve_studies_args(argv) {
            Ok(args) => args,
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        };
        return match run_serve_studies(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::FAILURE
            }
        };
    }
    eprintln!("usage: edgetune-service serve-studies --file FILE [--work-dir DIR] [--json FILE]");
    ExitCode::FAILURE
}
