//! The `distgraph` binary — see [`gp_cli`] for the commands.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(gp_cli::run(&args));
}
