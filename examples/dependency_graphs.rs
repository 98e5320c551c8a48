//! Print the static-analysis artifacts for the paper's bank example, for
//! TPC-C and for Smallbank: local dependency graphs (Fig. 5a/b), the global
//! dependency graph (Fig. 5c / Fig. 21), what replay executes of each
//! procedure (replay-live vs replay-dead operations, pieces per logged
//! transaction), the register code each procedure and each replay piece
//! compiles to, and the transaction-chopping comparison.
//!
//! ```sh
//! cargo run --release --example dependency_graphs
//! ```

use pacman_core::static_analysis::{ChoppingGraph, GlobalGraph, LocalGraph};
use pacman_workloads::bank::Bank;
use pacman_workloads::smallbank::Smallbank;
use pacman_workloads::tpcc::{Tpcc, TpccConfig};
use pacman_workloads::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn show(workload: &dyn Workload, title: &str) {
    println!("==== {title} ====");
    let reg = &workload.registry();
    for proc in reg.all() {
        println!("\n{}", proc.pretty_code());
        let lg = LocalGraph::analyze(proc);
        println!(
            "local dependency graph (replay-live ops): {} slices",
            lg.len()
        );
        for s in &lg.slices {
            println!("  slice {}: ops {:?}", s.id, s.ops);
        }
        for (a, b) in &lg.edges {
            println!("  {a} -> {b}");
        }
    }
    let gdg = GlobalGraph::analyze(reg.all()).expect("analyzable");
    println!("\nglobal dependency graph ({} blocks):", gdg.num_blocks());
    print!("{}", gdg.pretty());
    for proc in reg.all() {
        let pieces = gdg
            .templates_for(proc.id)
            .iter()
            .zip(gdg.plans_for(proc.id));
        for (tmpl, plan) in pieces {
            let store = if plan.hands_off() {
                " (uses the transaction's variable store)"
            } else {
                ""
            };
            println!(
                "\n{} piece in {}, ops {:?}{store}:",
                proc.name, tmpl.block, tmpl.ops
            );
            print!("{plan}");
        }
    }
    let mut rng = SmallRng::seed_from_u64(1);
    let mix = (0..10_000).map(|_| workload.next_txn(&mut rng).0);
    print!("\n{}", gdg.replay_summary(mix));
    let chop = ChoppingGraph::analyze(reg.all());
    let pacman_pieces: usize = reg.all().iter().map(|p| LocalGraph::analyze(p).len()).sum();
    println!(
        "\ngranularity: PACMAN {} slices vs transaction chopping {} pieces\n",
        pacman_pieces,
        chop.total_pieces()
    );
}

fn main() {
    show(&Bank::default(), "Bank example (paper Figs. 2-5)");
    show(&Tpcc::new(TpccConfig::default()), "TPC-C (paper Fig. 21)");
    show(&Smallbank::default(), "Smallbank");
}
