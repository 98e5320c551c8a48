//! Fig. 21 (Appendix C): the global dependency graph of TPC-C produced by
//! PACMAN's static analysis. The paper leaves the read-only procedures out
//! by hand ("generate no logs"); here the analysis does it — the graph is
//! built over replay-live operations, of which they have none.

use pacman_bench::{banner, bench_tpcc};
use pacman_core::static_analysis::{GlobalGraph, LocalGraph};
use pacman_workloads::Workload;

fn main() {
    banner(
        "Fig. 21 — TPC-C global dependency graph",
        "NewOrder/Payment/Delivery slices interleave across blocks; slices \
         touching the same written tables (District, Customer, Stock, …) \
         share blocks",
    );
    let tpcc = bench_tpcc(false);
    let reg = tpcc.registry();
    for p in reg.all() {
        let lg = LocalGraph::analyze(p);
        println!("{} -> {} slices", p.name, lg.len());
        for s in &lg.slices {
            let tables: Vec<String> = s
                .ops
                .iter()
                .map(|&o| format!("{}", p.ops[o].table))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            println!(
                "  slice {}: ops {:?} on tables {}",
                s.id,
                s.ops,
                tables.join(",")
            );
        }
    }
    let gdg = GlobalGraph::analyze(reg.all()).unwrap();
    println!("\n{}", gdg.pretty());
    println!("{}", pacman_bench::replay_summary(&tpcc, &gdg));
    println!("table ownership (ad-hoc dispatch map):");
    for (name, id) in [
        ("warehouse", pacman_workloads::tpcc::schema::WAREHOUSE),
        ("district", pacman_workloads::tpcc::schema::DISTRICT),
        ("customer", pacman_workloads::tpcc::schema::CUSTOMER),
        ("stock", pacman_workloads::tpcc::schema::STOCK),
        ("item", pacman_workloads::tpcc::schema::ITEM),
        ("order", pacman_workloads::tpcc::schema::ORDER),
    ] {
        match gdg.block_for_write(id) {
            Some(b) => println!("  {name:<10} -> B{}", b.0),
            None => println!("  {name:<10} -> read-only"),
        }
    }

    pacman_bench::finish_bin("fig21");
}
