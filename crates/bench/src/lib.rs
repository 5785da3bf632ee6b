//! Shared plumbing for the `exp` binary, which regenerates the paper's
//! tables and figures (one artefact per table or figure; see DESIGN.md §3).
//!
//! The environment reproduces §3.1: two R*-trees with fan-out 50 over
//! Water-like and Roads-like point sets sharing one coordinate frame, a
//! 256-frame buffer split evenly between the trees, Euclidean distances,
//! and objects stored directly in the leaves. Dataset sizes scale with
//! `--scale`; `1.0` reproduces the paper's cardinalities (37,495 and
//! 200,482).

use std::io::{self, Write};
use std::time::Instant;

use sdj_core::{DistanceJoin, JoinConfig, JoinStats, SemiConfig, SpatialIndex};
use sdj_datagen::tiger;
use sdj_geom::Point;
use sdj_obs::ObsContext;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

/// Paper-like experiment environment.
pub struct Env {
    /// Water-like point set (the smaller relation).
    pub water: Vec<Point<2>>,
    /// Roads-like point set (the larger relation).
    pub roads: Vec<Point<2>>,
    /// R*-tree over `water`.
    pub water_tree: RTree<2>,
    /// R*-tree over `roads`.
    pub roads_tree: RTree<2>,
    /// Where the measured runs log their events; `None` runs them
    /// uninstrumented.
    pub obs: Option<ObsContext>,
}

/// The R*-tree configuration of §3.1: fan-out 50, half of a 256-frame
/// buffer per tree.
#[must_use]
pub fn paper_tree_config() -> RTreeConfig {
    RTreeConfig {
        buffer_frames: 128,
        ..RTreeConfig::default()
    }
}

/// Builds a tree from points via STR bulk loading (tree construction is not
/// the quantity under measurement in any experiment).
#[must_use]
pub fn build_tree(config: RTreeConfig, points: &[Point<2>]) -> RTree<2> {
    let items: Vec<(ObjectId, _)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
        .collect();
    RTree::bulk_load(config, items)
}

impl Env {
    /// Creates the environment at the given scale with a fixed seed.
    #[must_use]
    pub fn new(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n_water = ((tiger::WATER_FULL as f64) * scale).round().max(1.0) as usize;
        let n_roads = ((tiger::ROADS_FULL as f64) * scale).round().max(1.0) as usize;
        let water = tiger::water_like(n_water, seed);
        let roads = tiger::roads_like(n_roads, seed);
        let water_tree = build_tree(paper_tree_config(), &water);
        let roads_tree = build_tree(paper_tree_config(), &roads);
        Self {
            water,
            roads,
            water_tree,
            roads_tree,
            obs: None,
        }
    }

    /// Size of the Cartesian product Water × Roads.
    #[must_use]
    pub fn pairs(&self) -> u64 {
        self.water.len() as u64 * self.roads.len() as u64
    }

    /// Runs a distance join (or semi-join when `semi` is set) over the
    /// environment, consuming up to `take` results. `swap` joins Roads with
    /// Water instead of Water with Roads.
    #[must_use]
    pub fn run_join(
        &self,
        swap: bool,
        config: JoinConfig,
        semi: Option<SemiConfig>,
        take: u64,
    ) -> Measurement {
        let (t1, t2) = if swap {
            (&self.roads_tree, &self.water_tree)
        } else {
            (&self.water_tree, &self.roads_tree)
        };
        time_join(t1, t2, config, semi, take, self.obs.as_ref())
    }
}

/// One measured join run.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Join counters at the end of the run.
    pub stats: JoinStats,
    /// Result pairs actually produced.
    pub produced: u64,
    /// Queue elements resident in memory at the peak: the hybrid queue's
    /// in-memory high-water mark, or `stats.max_queue`.
    pub resident_peak: usize,
    /// Queue elements the hybrid queue spilled to disk.
    pub spilled: u64,
}

/// Runs `f`, returning its result and the wall-clock seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Times a join of any two indexes (a semi-join when `semi` is set),
/// consuming up to `take` results; the join logs to `obs` when one is set.
pub fn time_join<I1: SpatialIndex<2>, I2: SpatialIndex<2>>(
    t1: &I1,
    t2: &I2,
    config: JoinConfig,
    semi: Option<SemiConfig>,
    take: u64,
    obs: Option<&ObsContext>,
) -> Measurement {
    let ((join, produced), seconds) = timed(|| {
        let mut join = match semi {
            Some(sc) => DistanceJoin::semi(t1, t2, config, sc),
            None => DistanceJoin::new(t1, t2, config),
        };
        if let Some(ctx) = obs {
            join = join.with_obs(ctx);
        }
        let produced = join.by_ref().take(take as usize).count() as u64;
        (join, produced)
    });
    let stats = join.stats();
    let (resident_peak, spilled) = join
        .hybrid_queue_info()
        .map_or((stats.max_queue, 0), |(tiers, peak)| (peak, tiers.spilled));
    Measurement {
        seconds,
        stats,
        produced,
        resident_peak,
        spilled,
    }
}

/// Prints a fixed-width table: right-aligned columns under a rule.
///
/// # Panics
///
/// If a row's length differs from the header's.
pub fn print_table(out: &mut dyn Write, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let headers: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            s.push_str(&format!("{cell:>w$}  ", w = w));
        }
        s.trim_end().to_owned()
    };
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    writeln!(out, "{}\n{}", line(&headers), rule.join("--"))?;
    for row in rows {
        writeln!(out, "{}", line(row))?;
    }
    Ok(())
}

/// Formats seconds with three significant decimals.
#[must_use]
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.3}")
}

/// One column of a sweep: a label, the join order (`swap` joins Roads with
/// Water), the join's configuration, the semi-join filter if any, and the
/// largest K the variant is valid for.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Column label.
    pub label: String,
    /// Join Roads with Water instead of Water with Roads.
    pub swap: bool,
    /// The join's configuration.
    pub config: JoinConfig,
    /// Runs a distance semi-join when set.
    pub semi: Option<SemiConfig>,
    /// Larger K are not run (their cell prints `-`).
    pub max_k: u64,
}

impl Variant {
    /// A Water ⋈ Roads join valid for every K.
    #[must_use]
    pub fn new(label: impl Into<String>, config: JoinConfig) -> Self {
        Self {
            label: label.into(),
            swap: false,
            config,
            semi: None,
            max_k: u64::MAX,
        }
    }

    /// The same variant as a distance semi-join.
    #[must_use]
    pub fn semi(self, semi: SemiConfig) -> Self {
        Self {
            semi: Some(semi),
            ..self
        }
    }

    /// The same variant in the Roads ⋈ Water order.
    #[must_use]
    pub fn swapped(self) -> Self {
        Self { swap: true, ..self }
    }

    /// The same variant, run only up to `max_k` results.
    #[must_use]
    pub fn up_to(self, max_k: u64) -> Self {
        Self { max_k, ..self }
    }
}

/// The measurements of a sweep: one row per K, one cell per variant
/// (`None` past the variant's `max_k`).
pub struct Grid {
    rows: Vec<(u64, String, Vec<Option<Measurement>>)>,
}

/// Runs every variant at every K of `ks`, row by row. The trees' buffer
/// pools carry over from run to run, so this order is part of the node-I/O
/// result. The row of K = `all` is labelled as the complete semi-join.
#[must_use]
pub fn sweep(env: &Env, variants: &[Variant], ks: &[u64], all: Option<u64>) -> Grid {
    let rows = ks
        .iter()
        .map(|&k| {
            let cells = variants
                .iter()
                .map(|v| (k <= v.max_k).then(|| env.run_join(v.swap, v.config, v.semi, k)))
                .collect();
            let label = if Some(k) == all {
                format!("{k} (All)")
            } else {
                k.to_string()
            };
            (k, label, cells)
        })
        .collect();
    Grid { rows }
}

/// Renders one table cell from a run.
pub type Cell = fn(&Measurement) -> String;

/// A printed column of a [`Grid`]: header, variant index, and cell.
pub type Column<'a> = (&'a str, usize, Cell);

impl Grid {
    /// Panics unless every run produced its K results.
    pub fn assert_complete(&self) {
        for (k, label, cells) in &self.rows {
            for m in cells.iter().flatten() {
                assert_eq!(m.produced, *k, "environment too small for {label} results");
            }
        }
    }

    /// Prints a `Pairs` column followed by `columns`.
    pub fn print(&self, out: &mut dyn Write, columns: &[Column<'_>]) -> io::Result<()> {
        let mut headers = vec!["Pairs"];
        headers.extend(columns.iter().map(|c| c.0));
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(_, label, cells)| {
                let row = columns
                    .iter()
                    .map(|&(_, v, cell)| cells[v].as_ref().map_or("-".into(), cell));
                std::iter::once(label.clone()).chain(row).collect()
            })
            .collect();
        print_table(out, &headers, &rows)
    }

    /// Prints one `cell` column per variant, headed by its label.
    pub fn print_each(
        &self,
        out: &mut dyn Write,
        variants: &[Variant],
        cell: Cell,
    ) -> io::Result<()> {
        let columns: Vec<Column<'_>> = variants
            .iter()
            .enumerate()
            .map(|(i, v)| (v.label.as_str(), i, cell))
            .collect();
        self.print(out, &columns)
    }
}

/// Distances of the result pairs at the given 1-based ranks (which must
/// ascend), from one uninstrumented Water ⋈ Roads run (a semi-join when
/// `semi` is set). A rank past the end of the stream reads the last result.
#[must_use]
pub fn distance_at_ranks(env: &Env, ranks: &[u64], semi: Option<SemiConfig>) -> Vec<f64> {
    assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "ranks must ascend");
    let config = JoinConfig::default();
    let mut join = match semi {
        Some(sc) => DistanceJoin::semi(&env.water_tree, &env.roads_tree, config, sc),
        None => DistanceJoin::new(&env.water_tree, &env.roads_tree, config),
    };
    let (mut read, mut last) = (0, 0.0);
    ranks
        .iter()
        .map(|&rank| {
            for r in join.by_ref().take((rank - read) as usize) {
                last = r.distance;
            }
            read = rank;
            last
        })
        .collect()
}

/// The standard result-count sweep of the paper's figures.
pub const PAIR_SWEEP: [u64; 6] = [1, 10, 100, 1_000, 10_000, 100_000];

/// Scales the sweep down when a scaled environment cannot produce the
/// larger counts (semi-joins are capped by the outer cardinality).
#[must_use]
pub fn sweep_up_to(max: u64) -> Vec<u64> {
    PAIR_SWEEP.iter().copied().filter(|k| *k <= max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_builds_at_small_scale() {
        let env = Env::new(0.002, 7);
        assert_eq!(env.water.len(), 75);
        assert_eq!(env.roads.len(), 401);
        assert_eq!(env.water_tree.len(), 75);
        assert_eq!(env.roads_tree.len(), 401);
    }

    #[test]
    fn sweep_capping() {
        assert_eq!(sweep_up_to(1_000), vec![1, 10, 100, 1_000]);
        assert_eq!(sweep_up_to(999), vec![1, 10, 100]);
    }

    #[test]
    fn table_renders() {
        let mut out = Vec::new();
        print_table(
            &mut out,
            &["Pairs", "Time"],
            &[vec!["1".into(), "0.5".into()]],
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "Pairs  Time\n-----------\n    1   0.5\n"
        );
    }
}
