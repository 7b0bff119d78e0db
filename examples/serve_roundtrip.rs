//! Serve round trip: start a gsknn-serve server in-process, fire mixed
//! f64/f32 queries at it over real TCP, and print the coalescing report.
//!
//! ```sh
//! cargo run --release --example serve_roundtrip
//! ```

use gsknn::serve::{Client, Outcome, ServeIndex, Server, ServerConfig};

fn main() {
    // The index: 20,000 points in 24 dimensions behind a 4-tree forest.
    // ServeIndex keeps an f32 cast alongside, so one server answers both
    // precisions from the same table.
    let refs = gsknn::data::uniform(20_000, 24, 42);
    let index = ServeIndex::build(refs, 4, 2048, 7);

    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(), // free port
            ..ServerConfig::default()
        },
        index,
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    for (precision, target) in server.batch_targets() {
        println!("{precision} lane flushes at m* = {target} (or on deadline)");
    }

    // The server blocks in run(); give it a thread.
    let server = std::thread::spawn(move || server.run());

    // Two clients on separate connections, one per precision.
    let mut c64 = Client::connect(addr).expect("connect f64");
    let mut c32 = Client::connect(addr).expect("connect f32");
    c64.ping().expect("ping");

    let queries = gsknn::data::uniform(64, 24, 4242);
    let queries32 = queries.cast::<f32>();
    let (k, deadline_ms) = (8, 100);
    for i in 0..queries.len() {
        // Single-point queries: the server's coalescer batches these into
        // one kernel call per flush, guided by the §2.6 model.
        let out64 = c64
            .query::<f64>(queries.point(i), 1, k, deadline_ms)
            .expect("query f64");
        let out32 = c32
            .query::<f32>(queries32.point(i), 1, k, deadline_ms)
            .expect("query f32");
        if i == 0 {
            if let (Outcome::Neighbors(t64), Outcome::Neighbors(t32)) =
                (&out64.outcome, &out32.outcome)
            {
                println!(
                    "query 0: f64 nearest #{} (d²={:.4}, rtt {:?}), f32 nearest #{} (d²={:.4}, rtt {:?})",
                    t64.row(0)[0].idx,
                    t64.row(0)[0].dist,
                    out64.rtt,
                    t32.row(0)[0].idx,
                    t32.row(0)[0].dist,
                    out32.rtt,
                );
            }
        }
    }

    // One 48-point batch query — arrives as a single job, usually enough
    // to trip the model flush on its own.
    let batch: Vec<f64> = (0..48).flat_map(|i| queries.point(i).to_vec()).collect();
    match c64
        .query::<f64>(&batch, 48, k, deadline_ms)
        .expect("batch")
        .outcome
    {
        Outcome::Neighbors(table) => println!("batch query answered {} rows", table.len()),
        other => println!("batch query answered {other:?}"),
    }

    println!("\nserver stats:\n{}", c64.stats().expect("stats"));

    // Graceful shutdown: the server drains pending work, then run()
    // returns the final ServeReport.
    c64.shutdown().expect("shutdown");
    let report = server.join().expect("server thread");
    print!("{}", report.render_table());
}
