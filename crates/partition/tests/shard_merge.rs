//! Sharded degree-state merge equivalence.
//!
//! Hybrid, H-Ginger and VEBO count degrees with
//! [`gp_partition::sharded_degree_table`]: each `gp-par` worker
//! counts its chunk into a private [`gp_core::DegreeTable`] shard, and the
//! shards are merged in chunk order. This suite pins the contract that the
//! merged state is *exactly* the sequential [`EdgeList::degrees`] table —
//! for every thread count and for the adversarial stream shapes that have
//! historically broken sharded counters: duplicate edges (counts add, not
//! saturate), self-loops (both endpoints bump), isolated vertices (stay
//! zero through the merge), and single-partition/empty graphs (degenerate
//! chunking).

use gp_core::{DegreeTable, Edge, EdgeList, VertexId};
use gp_par::ParConfig;
use gp_partition::sharded_degree_table;

const THREADS: [u32; 4] = [1, 2, 4, 7];

/// Assert the sharded table equals the sequential one vertex-by-vertex at
/// every thread count.
fn assert_matches_sequential(graph: &EdgeList) {
    let seq = graph.degrees();
    for threads in THREADS {
        let sharded = sharded_degree_table(graph, &ParConfig::new(threads));
        for v in 0..graph.num_vertices() {
            let vid = VertexId(v);
            assert_eq!(
                (sharded.out_degree(vid), sharded.in_degree(vid)),
                (seq.out_degree(vid), seq.in_degree(vid)),
                "degree mismatch at v={v} threads={threads}"
            );
        }
    }
}

#[test]
fn powerlaw_graph_matches_sequential_at_every_thread_count() {
    assert_matches_sequential(&gp_gen::barabasi_albert(5_000, 7, 11));
}

#[test]
fn duplicate_edges_accumulate_not_saturate() {
    // The same edge repeated many times must contribute its full
    // multiplicity through the shard merge.
    let mut pairs = vec![(0u64, 1u64); 100];
    pairs.extend([(1, 2), (2, 0), (0, 1)]);
    let g = EdgeList::from_pairs(pairs);
    assert_matches_sequential(&g);
    let sharded = sharded_degree_table(&g, &ParConfig::new(4));
    assert_eq!(sharded.out_degree(VertexId(0)), 101);
    assert_eq!(sharded.in_degree(VertexId(1)), 101);
}

#[test]
fn self_loops_bump_both_sides() {
    let g = EdgeList::from_pairs(vec![(0, 0), (0, 0), (1, 0), (2, 2)]);
    assert_matches_sequential(&g);
    let sharded = sharded_degree_table(&g, &ParConfig::new(7));
    assert_eq!(sharded.out_degree(VertexId(0)), 2);
    assert_eq!(sharded.in_degree(VertexId(0)), 3);
}

#[test]
fn isolated_vertices_stay_zero() {
    // Vertices 5..100 never appear on an edge; every shard must leave
    // them untouched and the merge must not disturb them.
    let g = EdgeList::with_vertex_count(
        vec![
            Edge::new(0u64, 1u64),
            Edge::new(2u64, 3u64),
            Edge::new(4u64, 0u64),
        ],
        100,
    )
    .expect("ids in range");
    assert_matches_sequential(&g);
    let sharded = sharded_degree_table(&g, &ParConfig::new(4));
    for v in 5..100 {
        assert_eq!(sharded.out_degree(VertexId(v)), 0);
        assert_eq!(sharded.in_degree(VertexId(v)), 0);
    }
}

#[test]
fn tiny_streams_survive_degenerate_chunking() {
    // Fewer edges than workers: some chunks are empty, and the merge
    // order must still reproduce the sequential count.
    for m in 0..10u64 {
        let g = EdgeList::from_pairs((0..m).map(|i| (i, (i + 1) % 10)).collect());
        assert_matches_sequential(&g);
    }
}

#[test]
fn empty_graph_yields_empty_table() {
    let g = EdgeList::from_pairs(Vec::new());
    let sharded = sharded_degree_table(&g, &ParConfig::new(4));
    assert_eq!(sharded.in_degrees().count(), 0);
}

#[test]
fn manual_shard_merge_is_elementwise_and_ordered() {
    // merge_from is elementwise addition: merging the same shard twice
    // doubles, and merge order cannot matter for the final counts.
    let g = gp_gen::erdos_renyi(50, 400, 3);
    let seq = g.degrees();
    let mut doubled = DegreeTable::zeroed(50);
    doubled.merge_from(&seq);
    doubled.merge_from(&seq);
    for v in 0..50 {
        let vid = VertexId(v);
        assert_eq!(doubled.out_degree(vid), 2 * seq.out_degree(vid));
        assert_eq!(doubled.in_degree(vid), 2 * seq.in_degree(vid));
    }
}
