//! Benchmark-owned base data, and the catalog the planner sees *derived
//! from that data*.
//!
//! The data rule (see `README.md`, "The data rule"):
//!
//! 1. **Rows.** A relation of catalog cardinality `c` gets
//!    `clamp(round(c · scale), min(min_rows, c), max_rows)` rows.
//! 2. **Join domains.** Join attributes are grouped into classes (the
//!    attributes an equi-join predicate connects). Each class draws its
//!    values from one shared domain `[0, D)`. `D` starts at the widest
//!    distinct-value estimate of its attributes, scaled to the generated
//!    row counts (an attribute without statistics is key-like: its
//!    relation's row count), and never below the rows of a relation
//!    whose attribute is declared unique.
//! 3. **Bounded fan-out.** Under independent uniform values the expected
//!    size of a connected sub-join `S` is `Π_{r∈S} rows(r) · Π_{e⊆S} 1/D(e)`.
//!    While some connected `S` expects more than
//!    `FANOUT_CAP · max_{r∈S} rows(r)` rows, the domain of the edge in `S`
//!    with the smallest `D / max(rows)` ratio doubles. Once every
//!    domain reaches the larger side's row count, every tree-shaped
//!    sub-join expects at most its smallest input, so the loop ends.
//! 4. **Non-empty results.** `W` witness tuples are planted: witness
//!    row `w` of every relation carries the class value `π(w)` (`π` is a
//!    seeded bijection of the class domain), `0` in constant-predicate
//!    columns and `0`/`1` in filter columns. Every witness survives every
//!    predicate of the query, cycles included, so each query's result is
//!    non-empty.
//! 5. **Fixed statistics, seeded values.** A join column denser than its
//!    domain cycles through it (every value `⌊n/D⌋` or `⌈n/D⌉` times); a
//!    sparser one takes a window of the non-witness values, placed so
//!    that it overlaps the class's previous window by the match count
//!    independent uniform values would give. Other columns spread their
//!    rows evenly over their scaled distinct-value estimate (key-like
//!    without one). Row counts, distinct counts and join selectivities
//!    are therefore the same for every seed; the seed picks `π`, the
//!    offsets and which rows hold which values.
//! 6. **Keys as declared.** A column the generator declares unique is
//!    unique; any other column that came out all-distinct repeats one
//!    value, so no column becomes a key by chance.
//!
//! The planner's catalog is then rebuilt from the generated columns:
//! row counts, distinct counts (so an attribute is unique exactly when
//! its column is), and join, constant and filter selectivities
//! measured on the base columns.

use ofw_catalog::{AttrId, Catalog};
use ofw_common::{FxHashMap, FxHashSet};
use ofw_plangen::exec::CONST_VALUE;
use ofw_query::Query;

/// A small deterministic generator (SplitMix64): same seed, same data.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Mixes a seed with a salt into an independent stream seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Bound on every connected sub-join's expected rows, as a multiple of
/// its largest input (rule step 3).
const FANOUT_CAP: f64 = 4.0;

/// Parameters of the data rule (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct DataRule {
    /// Rows per relation = catalog cardinality × `scale`, clamped.
    pub scale: f64,
    /// Lower row clamp (never above the relation's own cardinality).
    pub min_rows: usize,
    /// Upper row clamp.
    pub max_rows: usize,
    /// Witness tuples planted per query (at most half the smallest relation).
    pub witnesses: usize,
}

/// One query's database instance: the columns and the catalog and query
/// whose statistics were measured on them.
pub struct Instance {
    /// Catalog with row counts and distinct counts taken from `columns`.
    pub catalog: Catalog,
    /// The query with selectivities measured on `columns`.
    pub query: Query,
    /// `columns[qrel][attr][row]`, attributes in catalog declaration
    /// order — the layout `ofw_exec::execute_plan` scans.
    pub columns: Vec<Vec<Vec<i64>>>,
}

impl DataRule {
    /// Rows generated for a relation of catalog cardinality `card`.
    fn rows(&self, card: f64) -> usize {
        let card = card.max(1.0);
        let floor = (self.min_rows as f64).min(card).max(1.0);
        (card * self.scale)
            .round()
            .clamp(floor, self.max_rows as f64) as usize
    }
}

/// Union-find over join attributes: the join classes.
fn join_classes(query: &Query) -> (FxHashMap<AttrId, usize>, usize) {
    let mut parent: Vec<usize> = Vec::new();
    let mut id: FxHashMap<AttrId, usize> = FxHashMap::default();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for j in &query.joins {
        let mut node = |a: AttrId| {
            *id.entry(a).or_insert_with(|| {
                parent.push(parent.len());
                parent.len() - 1
            })
        };
        let (l, r) = (node(j.left), node(j.right));
        let (l, r) = (find(&mut parent, l), find(&mut parent, r));
        parent[l] = r;
    }
    // Dense class numbers in first-seen order.
    let mut dense: FxHashMap<usize, usize> = FxHashMap::default();
    let mut class: FxHashMap<AttrId, usize> = FxHashMap::default();
    let mut attrs: Vec<(AttrId, usize)> = id.into_iter().collect();
    attrs.sort_unstable_by_key(|&(a, _)| a);
    for (a, node) in attrs {
        let root = find(&mut parent, node);
        let next = dense.len();
        class.insert(a, *dense.entry(root).or_insert(next));
    }
    let n = dense.len();
    (class, n)
}

/// Connected subsets of the join graph with at least one edge, each as
/// (member relations, edges inside).
fn connected_subsets(query: &Query) -> Vec<(u64, Vec<usize>)> {
    let n = query.num_relations();
    assert!(
        n <= 20,
        "the fan-out bound enumerates subsets; {n} relations is too many"
    );
    let ends: Vec<(usize, usize)> = query
        .joins
        .iter()
        .map(|j| (query.owner(j.left), query.owner(j.right)))
        .collect();
    let mut adj = vec![0u64; n];
    for &(l, r) in &ends {
        adj[l] |= 1 << r;
        adj[r] |= 1 << l;
    }
    let mut out = Vec::new();
    for set in 1u64..(1 << n) {
        if set.count_ones() < 2 {
            continue;
        }
        let mut seen = 1u64 << set.trailing_zeros();
        loop {
            let mut grow = seen;
            let mut rest = seen;
            while rest != 0 {
                let q = rest.trailing_zeros();
                rest &= rest - 1;
                grow |= adj[q as usize] & set;
            }
            if grow == seen {
                break;
            }
            seen = grow;
        }
        if seen == set {
            let inside = (0..ends.len())
                .filter(|&e| set >> ends[e].0 & 1 == 1 && set >> ends[e].1 & 1 == 1)
                .collect();
            out.push((set, inside));
        }
    }
    out
}

/// Widens join-class domains until every connected sub-join's expected
/// size is within `FANOUT_CAP × its largest input` (rule step 3).
fn bound_fanout(query: &Query, rows: &[usize], class_of_edge: &[usize], domain: &mut [f64]) {
    let subsets = connected_subsets(query);
    let ends: Vec<(usize, usize)> = query
        .joins
        .iter()
        .map(|j| (query.owner(j.left), query.owner(j.right)))
        .collect();
    let ln_rows: Vec<f64> = rows.iter().map(|&r| (r as f64).ln()).collect();
    for _ in 0..100_000 {
        let mut worst: Option<(f64, usize)> = None;
        for (k, (set, inside)) in subsets.iter().enumerate() {
            let members = (0..rows.len()).filter(|&q| set >> q & 1 == 1);
            let mut ln_size = 0.0;
            let mut ln_max = 0.0f64;
            for q in members {
                ln_size += ln_rows[q];
                ln_max = ln_max.max(ln_rows[q]);
            }
            for &e in inside {
                ln_size -= domain[class_of_edge[e]].ln();
            }
            let excess = ln_size - ln_max - FANOUT_CAP.ln();
            if excess > 1e-9 && worst.is_none_or(|(w, _)| excess > w) {
                worst = Some((excess, k));
            }
        }
        let Some((_, k)) = worst else {
            return;
        };
        let widen = subsets[k]
            .1
            .iter()
            .map(|&e| {
                let larger = rows[ends[e].0].max(rows[ends[e].1]) as f64;
                (domain[class_of_edge[e]] / larger, class_of_edge[e])
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, c)| c)
            .expect("a connected subset has an edge");
        domain[widen] *= 2.0;
    }
    panic!("fan-out bound did not converge");
}

/// `n` values over `0..domain`, as evenly spread as `n` allows, in random
/// order: every value appears `⌊n/domain⌋` or `⌈n/domain⌉` times.
fn balanced(rng: &mut Rng, n: usize, domain: u64) -> Vec<i64> {
    let offset = rng.below(domain);
    let mut col: Vec<i64> = (0..n as u64)
        .map(|i| ((i + offset) % domain) as i64)
        .collect();
    rng.shuffle(&mut col);
    col
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The value layout of one join class: domain `0..D`, a seeded bijection
/// `π(x) = (mul·x + add) mod D`, and `W` witness values `π(0..W)`.
struct ClassLayout {
    domain: u64,
    mul: u64,
    add: u64,
    witnesses: usize,
}

impl ClassLayout {
    fn new(rng: &mut Rng, domain: u64, witnesses: usize) -> Self {
        let mut mul = rng.below(domain);
        while gcd(mul, domain) != 1 {
            mul = rng.below(domain);
        }
        ClassLayout {
            domain,
            mul,
            add: rng.below(domain),
            witnesses,
        }
    }

    fn value(&self, x: u64) -> i64 {
        ((u128::from(self.mul) * u128::from(x) + u128::from(self.add)) % u128::from(self.domain))
            as i64
    }

    /// Whether a column of `n` rows draws each value at most once.
    fn sparse(&self, n: usize) -> bool {
        self.domain >= n as u64
    }

    /// The `n - W` non-witness values of a column of `n` rows, in layout
    /// order (before `π`). A dense column (`n > D`) cycles through the
    /// domain, so every value appears `⌊n/D⌋` or `⌈n/D⌉` times in total;
    /// a sparse one takes the window `offset..` of the non-witness
    /// values `W..D`, so its overlap with another column of the class is
    /// fixed by their offsets. `distinct` says whether a sparse column
    /// may stay all-distinct; if not, its last value repeats witness 0.
    fn column(&self, n: usize, offset: u64, distinct: bool) -> Vec<u64> {
        let w = self.witnesses as u64;
        if !self.sparse(n) {
            return (w..n as u64).map(|j| j % self.domain).collect();
        }
        let span = self.domain - w;
        let mut out: Vec<u64> = (0..n as u64 - w).map(|j| w + (offset + j) % span).collect();
        if !distinct && n >= 2 {
            *out.last_mut().expect("n > W") = 0;
        }
        out
    }
}

/// Generates one query's instance under `rule` and re-derives the
/// catalog and query statistics from it.
pub fn instance(catalog: &Catalog, query: &Query, rule: &DataRule, seed: u64) -> Instance {
    let mut rng = Rng::new(seed);
    let nq = query.num_relations();
    let rows: Vec<usize> = query
        .relations
        .iter()
        .map(|&rel| rule.rows(catalog.relation(rel).cardinality))
        .collect();
    let shrink =
        |q: usize| rows[q] as f64 / catalog.relation(query.relations[q]).cardinality.max(1.0);
    let scaled_distinct = |a: AttrId| {
        let q = query.owner(a);
        match catalog.distinct_values(a) {
            Some(d) => (d * shrink(q)).round().max(1.0),
            None => rows[q] as f64,
        }
    };

    // Join classes and their domains (rule steps 2 and 3).
    let (class, num_classes) = join_classes(query);
    let mut domain = vec![1.0f64; num_classes];
    for (&a, &c) in &class {
        let q = query.owner(a);
        domain[c] = domain[c].max(scaled_distinct(a));
        if catalog.is_unique(a) {
            domain[c] = domain[c].max(rows[q] as f64);
        }
    }
    let class_of_edge: Vec<usize> = query.joins.iter().map(|j| class[&j.left]).collect();
    bound_fanout(query, &rows, &class_of_edge, &mut domain);

    // Witness values per class (rule step 4).
    // At most half of the smallest relation, so every relation keeps
    // non-witness rows (the last row never is one).
    let witnesses = rule
        .witnesses
        .min(rows.iter().copied().min().unwrap_or(0) / 2)
        .max(1);
    let constants: FxHashSet<AttrId> = query.constants.iter().map(|c| c.attr).collect();
    let filters: FxHashSet<AttrId> = query.filters.iter().map(|f| f.attr).collect();
    for a in constants.iter().chain(&filters) {
        assert!(
            !class.contains_key(a),
            "the data rule does not support a selection on a join attribute"
        );
    }
    let layouts: Vec<ClassLayout> = domain
        .iter()
        .map(|d| {
            ClassLayout::new(
                &mut rng,
                (d.ceil() as u64).max(witnesses as u64 + 1),
                witnesses,
            )
        })
        .collect();
    // Window offsets of the sparse members of each class, in attribute
    // order: each window overlaps the previous one by the match count
    // independent uniform values would give, so join selectivities do
    // not depend on the seed.
    let mut offset: FxHashMap<AttrId, u64> = FxHashMap::default();
    let mut members: Vec<(AttrId, usize)> = class.iter().map(|(&a, &c)| (a, c)).collect();
    members.sort_unstable();
    let mut previous: Vec<Option<(u64, u64)>> = vec![None; num_classes];
    for (a, c) in members {
        let layout = &layouts[c];
        let n = rows[query.owner(a)];
        if !layout.sparse(n) {
            continue;
        }
        let len = (n - witnesses) as u64;
        let span = layout.domain - witnesses as u64;
        let start = match previous[c] {
            None => 0,
            Some((prev_start, prev_len)) => {
                let overlap = ((prev_len * len) as f64 / span as f64).round() as u64;
                prev_start + prev_len - overlap.min(prev_len).min(len)
            }
        };
        offset.insert(a, start);
        previous[c] = Some((start, len));
    }

    let columns: Vec<Vec<Vec<i64>>> = (0..nq)
        .map(|q| {
            let n = rows[q];
            // Witness rows spread evenly through the relation.
            let witness_row = |w: usize| w * n / witnesses;
            let mut is_witness = vec![false; n];
            for w in 0..witnesses {
                is_witness[witness_row(w)] = true;
            }
            catalog
                .relation(query.relations[q])
                .attrs
                .iter()
                .map(|&a| {
                    let selected = constants.contains(&a) || filters.contains(&a);
                    let unique = catalog.is_unique(a) && !selected;
                    let mut col: Vec<i64> = if let Some(&c) = class.get(&a) {
                        let layout = &layouts[c];
                        let values = layout.column(n, offset.get(&a).copied().unwrap_or(0), unique);
                        let mut rest: Vec<i64> =
                            values.into_iter().map(|x| layout.value(x)).collect();
                        rng.shuffle(&mut rest);
                        let mut rest = rest.into_iter();
                        let mut w = 0..witnesses as u64;
                        (0..n)
                            .map(|row| {
                                if is_witness[row] {
                                    layout.value(w.next().expect("one value per witness row"))
                                } else {
                                    rest.next().expect("one value per other row")
                                }
                            })
                            .collect()
                    } else if unique {
                        let mut col: Vec<i64> = (0..n as i64).collect();
                        rng.shuffle(&mut col);
                        col
                    } else {
                        let d = scaled_distinct(a) as u64;
                        let mut col = balanced(&mut rng, n, d);
                        if selected {
                            for w in 0..witnesses {
                                col[witness_row(w)] = if constants.contains(&a) {
                                    CONST_VALUE
                                } else {
                                    (w % 2) as i64
                                };
                            }
                        }
                        col
                    };
                    // A column not declared unique never becomes a key by
                    // chance (rule step 6): repeat a value if needed.
                    if !unique && n >= 2 && count_distinct(&col) == n {
                        col[n - 1] = col[0];
                    }
                    col
                })
                .collect()
        })
        .collect();

    let (catalog, query) = derive_statistics(catalog, query, &columns);
    Instance {
        catalog,
        query,
        columns,
    }
}

/// Rebuilds `catalog` and `query` with statistics measured on `columns`:
/// row counts, per-column distinct counts, and join, constant and filter
/// selectivities. Relation and attribute ids are preserved (relations
/// are re-added in id order with the same attribute lists).
fn derive_statistics(
    catalog: &Catalog,
    query: &Query,
    columns: &[Vec<Vec<i64>>],
) -> (Catalog, Query) {
    let qrel_of: FxHashMap<u32, usize> = query
        .relations
        .iter()
        .enumerate()
        .map(|(q, r)| (r.0, q))
        .collect();
    let mut derived = Catalog::new();
    for (i, rel) in catalog.relations().iter().enumerate() {
        let q = qrel_of.get(&(i as u32)).copied();
        let card = match q {
            Some(q) => columns[q][0].len() as f64,
            None => rel.cardinality,
        };
        let names: Vec<&str> = rel
            .attrs
            .iter()
            .map(|&a| {
                let full = catalog.attr_name(a);
                full.strip_prefix(&format!("{}.", rel.name)).unwrap_or(full)
            })
            .collect();
        // `strip_prefix` borrows a temporary; own the names first.
        let names: Vec<String> = names.into_iter().map(str::to_string).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let id = derived.add_relation(&rel.name, card, &name_refs);
        assert_eq!(id.index(), i, "relation ids are preserved");
        for index in &rel.indexes {
            derived.add_index(id, index.key.clone(), index.clustered);
        }
        for (k, &a) in rel.attrs.iter().enumerate() {
            let distinct = match q {
                Some(q) => Some(count_distinct(&columns[q][k]) as f64),
                None => catalog.distinct_values(a),
            };
            if let Some(d) = distinct {
                derived.set_distinct_values(a, d);
            }
        }
    }

    let column = |a: AttrId| -> &[i64] {
        let q = query.owner(a);
        let pos = catalog
            .relation(query.relations[q])
            .attrs
            .iter()
            .position(|&x| x == a)
            .expect("attribute belongs to its owner");
        &columns[q][pos]
    };
    let mut query = query.clone();
    for j in &mut query.joins {
        let (l, r) = (column(j.left), column(j.right));
        let matches = join_matches(l, r);
        let pairs = l.len() as f64 * r.len() as f64;
        j.selectivity = (matches as f64).max(0.5) / pairs;
    }
    for c in &mut query.constants {
        let col = column(c.attr);
        let hits = col.iter().filter(|&&v| v == CONST_VALUE).count();
        c.selectivity = (hits as f64).max(0.5) / col.len() as f64;
    }
    for f in &mut query.filters {
        let col = column(f.attr);
        let hits = col.iter().filter(|&&v| v <= 1).count();
        f.selectivity = (hits as f64).max(0.5) / col.len() as f64;
    }
    (derived, query)
}

fn count_distinct(col: &[i64]) -> usize {
    col.iter().copied().collect::<FxHashSet<i64>>().len()
}

/// Number of `(l, r)` row pairs with equal values.
fn join_matches(l: &[i64], r: &[i64]) -> u64 {
    let (small, large) = if l.len() <= r.len() { (l, r) } else { (r, l) };
    let mut counts: FxHashMap<i64, u64> = FxHashMap::default();
    for &v in small {
        *counts.entry(v).or_default() += 1;
    }
    large
        .iter()
        .map(|v| counts.get(v).copied().unwrap_or(0))
        .sum()
}
