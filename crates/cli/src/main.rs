//! `gsknn-cli` — the command-line face of the GSKNN reproduction.

use cli::commands;
use cli::ArgMap;

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = match argv.next() {
        Some(c) => c,
        None => {
            eprint!("{}", commands::usage());
            std::process::exit(2);
        }
    };
    let rest: Vec<String> = argv.collect();
    let result = ArgMap::parse(rest).and_then(|args| {
        let out = run(&cmd, &args)?;
        // no ignored options: a flag the command never read is an error
        args.reject_unread(&cmd)?;
        Ok(out)
    });
    match result {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(cmd: &str, args: &ArgMap) -> Result<String, cli::CliError> {
    match cmd {
        "gen" => commands::cmd_gen(args),
        "knn" => commands::cmd_knn(args),
        "allnn" => commands::cmd_allnn(args),
        "query" => commands::cmd_query(args),
        "kmeans" => commands::cmd_kmeans(args),
        "graph" => commands::cmd_graph(args),
        "model" => commands::cmd_model(args),
        "profile" => commands::cmd_profile(args),
        "stream" => commands::cmd_stream(args),
        "tune" => commands::cmd_tune(args),
        "serve" => commands::cmd_serve(args),
        "route" => commands::cmd_route(args),
        "query-remote" => commands::cmd_query_remote(args),
        "trace" => commands::cmd_trace(args),
        "top" => commands::cmd_top(args),
        "help" | "--help" | "-h" => Ok(commands::usage()),
        other => Err(cli::CliError(format!(
            "unknown command '{other}'\n{}",
            commands::usage()
        ))),
    }
}
