//! The EXODUS search strategy: forward chaining ordered by expected cost
//! improvement, with immediate analysis and consumer reanalysis.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

use volcano_core::cost::Cost;
use volcano_core::ids::GroupId;
use volcano_core::Plan;
use volcano_rel::cost::local_cost;
use volcano_rel::{AttrId, RelAlg, RelCost, RelExpr, RelLogical, RelModel, RelOp, RelProps};

use crate::mesh::{ClassId, Mesh, NodeId, PlanRecord};
use crate::stats::ExodusStats;

/// Per-rule "expected cost improvement" factors. EXODUS scheduled
/// transformations by `factor × current cost of the matched expression`,
/// "worst of all for optimizer performance ... nodes at the top of the
/// expression (with high total cost) were preferred over lower
/// expressions" (§4.1) — the preference emerges from the cost term, the
/// factors only weight the rules against each other.
#[derive(Debug, Clone, Copy)]
pub struct RuleFactors {
    /// Factor for join commutativity.
    pub commute: f64,
    /// Factor for join associativity.
    pub assoc: f64,
}

impl Default for RuleFactors {
    fn default() -> Self {
        RuleFactors {
            commute: 1.0,
            assoc: 1.1,
        }
    }
}

/// The EXODUS-style optimizer.
pub struct ExodusOptimizer<'m> {
    model: &'m RelModel,
    factors: RuleFactors,
    /// Abort threshold for the MESH memory estimate, in bytes.
    memory_budget: usize,
}

/// A successful optimization.
pub struct ExodusOutcome {
    /// The chosen plan (same plan type as the Volcano side, for direct
    /// comparison and shared explain tooling).
    pub plan: Plan<RelModel>,
    /// Estimated execution cost of the plan.
    pub cost: RelCost,
    /// Search statistics.
    pub stats: ExodusStats,
}

/// Optimization aborted — "the EXODUS optimizer generator aborted due to
/// lack of memory" (§4.2).
#[derive(Debug)]
pub struct ExodusAbort {
    /// Statistics at the point of abort.
    pub stats: ExodusStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Rule {
    Commute,
    Assoc,
}

struct OpenEntry {
    priority: f64,
    seq: u64,
    node: NodeId,
    rule: Rule,
}

impl PartialEq for OpenEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl Eq for OpenEntry {}

impl PartialOrd for OpenEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OpenEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on priority; FIFO on ties (lower seq first).
        self.priority
            .partial_cmp(&other.priority)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Search<'m> {
    model: &'m RelModel,
    factors: RuleFactors,
    memory_budget: usize,
    mesh: Mesh,
    open: BinaryHeap<OpenEntry>,
    /// (outer node, rule, inner node or NodeId(u32::MAX)) already applied.
    applied: HashSet<(NodeId, Rule, NodeId)>,
    seq: u64,
    stats: ExodusStats,
}

const NO_INNER: NodeId = NodeId(u32::MAX);

impl<'m> ExodusOptimizer<'m> {
    /// Create an optimizer over the shared relational model (catalog,
    /// property derivation, and cost functions are the Volcano side's).
    pub fn new(model: &'m RelModel) -> Self {
        ExodusOptimizer {
            model,
            factors: RuleFactors::default(),
            memory_budget: 64 << 20,
        }
    }

    /// Set the MESH memory budget in bytes (abort threshold).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Optimize a query, optionally requiring a final sort order.
    pub fn optimize(
        &self,
        query: &RelExpr,
        order_by: &[AttrId],
    ) -> Result<ExodusOutcome, ExodusAbort> {
        let start = Instant::now();
        let mut search = Search {
            model: self.model,
            factors: self.factors,
            memory_budget: self.memory_budget,
            mesh: Mesh::new(),
            open: BinaryHeap::new(),
            applied: HashSet::new(),
            seq: 0,
            stats: ExodusStats::default(),
        };
        let root = search.insert_tree(query);
        let result = search.run(root);
        search.stats.elapsed = start.elapsed();
        search.stats.nodes = search.mesh.num_nodes();
        search.stats.classes = search.mesh.num_classes();
        search.stats.mesh_records = search.mesh.records_appended;
        search.stats.mesh_bytes = search.mesh.memory_estimate();
        match result {
            Err(()) => Err(ExodusAbort {
                stats: search.stats,
            }),
            Ok(()) => {
                let (plan, cost) = search.extract(root, order_by);
                Ok(ExodusOutcome {
                    plan,
                    cost,
                    stats: search.stats,
                })
            }
        }
    }
}

impl<'m> Search<'m> {
    fn insert_tree(&mut self, tree: &RelExpr) -> ClassId {
        let inputs: Vec<ClassId> = tree.inputs.iter().map(|t| self.insert_tree(t)).collect();
        let (node, class, is_new) = self.mesh.intern(self.model, tree.op.clone(), inputs, None);
        if is_new {
            self.analyze(node);
            self.propagate(node);
            self.enqueue_rules(node);
        }
        class
    }

    fn run(&mut self, _root: ClassId) -> Result<(), ()> {
        let mut iterations: u64 = 0;
        while let Some(entry) = self.open.pop() {
            iterations += 1;
            if iterations.is_multiple_of(64) && self.mesh.memory_estimate() > self.memory_budget {
                return Err(());
            }
            if self.mesh.node(entry.node).dead {
                continue;
            }
            match entry.rule {
                Rule::Commute => self.apply_commute(entry.node),
                Rule::Assoc => self.apply_assoc(entry.node),
            }
        }
        Ok(())
    }

    fn priority(&self, node: NodeId, rule: Rule) -> f64 {
        let factor = match rule {
            Rule::Commute => self.factors.commute,
            Rule::Assoc => self.factors.assoc,
        };
        // "the expected cost improvement was calculated as product of a
        // factor associated with the transformation rule and the current
        // cost before transformation".
        let cost = self
            .mesh
            .node(node)
            .best
            .map(|i| self.mesh.node(node).records[i].total.total())
            .unwrap_or(0.0);
        factor * cost
    }

    fn enqueue_rules(&mut self, node: NodeId) {
        if !matches!(self.mesh.node(node).op, RelOp::Join(_)) {
            return;
        }
        for rule in [Rule::Commute, Rule::Assoc] {
            self.seq += 1;
            let e = OpenEntry {
                priority: self.priority(node, rule),
                seq: self.seq,
                node,
                rule,
            };
            self.open.push(e);
        }
        // A new join node makes its class's join-consumers associable
        // through it: re-trigger their Assoc entries.
        let class = self.mesh.node(node).class;
        for parent in self.mesh.class_parents(class) {
            let p = self.mesh.node(parent);
            if matches!(p.op, RelOp::Join(_))
                && self.mesh.repr(p.inputs[0]) == self.mesh.repr(class)
            {
                self.seq += 1;
                let e = OpenEntry {
                    priority: self.priority(parent, Rule::Assoc),
                    seq: self.seq,
                    node: parent,
                    rule: Rule::Assoc,
                };
                self.open.push(e);
            }
        }
    }

    fn apply_commute(&mut self, node: NodeId) {
        if !self.applied.insert((node, Rule::Commute, NO_INNER)) {
            return;
        }
        let (op, inputs, class) = {
            let n = self.mesh.node(node);
            (n.op.clone(), n.inputs.clone(), n.class)
        };
        let RelOp::Join(p) = op else { return };
        self.stats.transformations += 1;
        let (new_node, _, is_new) = self.mesh.intern(
            self.model,
            RelOp::Join(p.flipped()),
            vec![inputs[1], inputs[0]],
            Some(class),
        );
        if is_new {
            self.analyze(new_node);
            self.enqueue_rules(new_node);
            self.propagate(new_node);
        }
    }

    fn apply_assoc(&mut self, node: NodeId) {
        let (op, inputs, class) = {
            let n = self.mesh.node(node);
            (n.op.clone(), n.inputs.clone(), n.class)
        };
        let RelOp::Join(p2) = op else { return };
        // Enumerate current join members of the left class as bindings.
        for inner in self.mesh.class_nodes(inputs[0]) {
            if !self.applied.insert((node, Rule::Assoc, inner)) {
                continue;
            }
            let (iop, iinputs) = {
                let n = self.mesh.node(inner);
                (n.op.clone(), n.inputs.clone())
            };
            let RelOp::Join(p1) = iop else { continue };
            let (a, b, c) = (iinputs[0], iinputs[1], inputs[1]);
            let b_logical = &self.mesh.class(b).logical;
            let (q1, to_outer) = p2.partition(|l, _| b_logical.has_attr(l));
            let q2 = p1.and(&to_outer);
            if q1.is_cross() || q2.is_cross() {
                continue;
            }
            self.stats.transformations += 1;
            let (inner_node, inner_class, inner_new) =
                self.mesh
                    .intern(self.model, RelOp::Join(q1), vec![b, c], None);
            if inner_new {
                self.analyze(inner_node);
                self.enqueue_rules(inner_node);
                self.propagate(inner_node);
            }
            let (root_node, _, root_new) = self.mesh.intern(
                self.model,
                RelOp::Join(q2),
                vec![a, inner_class],
                Some(class),
            );
            if root_new {
                self.analyze(root_node);
                self.enqueue_rules(root_node);
                self.propagate(root_node);
            }
        }
    }

    /// Analyze a node: evaluate each applicable algorithm against the
    /// inputs' *current best* plans (greedy, no property goals), folding
    /// any required sorts into the algorithm's own cost, and append the
    /// records to the node.
    fn analyze(&mut self, node: NodeId) {
        self.stats.analyses += 1;
        let (op, inputs) = {
            let n = self.mesh.node(node);
            (n.op.clone(), n.inputs.clone())
        };
        // Inputs' current bests; bail if any input is unanalyzable.
        let mut input_best: Vec<(RelCost, Vec<AttrId>)> = Vec::with_capacity(inputs.len());
        for &i in &inputs {
            match &self.mesh.class(i).best {
                Some((_, c, o)) => input_best.push((*c, o.clone())),
                None => return,
            }
        }
        let out = &self.mesh.class(self.mesh.node(node).class).logical;
        let reads: Vec<&RelLogical> = inputs
            .iter()
            .map(|&i| &self.mesh.class(i).logical)
            .collect();
        // A record of `alg` delivering `order`, sorting first the inputs
        // `input_sorts` marks; its total is completed below.
        let record = |alg: RelAlg, order: Vec<AttrId>, input_sorts: Vec<bool>| PlanRecord {
            local: self.cost(&alg, &reads, out),
            alg,
            total: RelCost::zero(),
            order,
            input_sorts,
        };

        let mut records: Vec<PlanRecord> = Vec::new();
        match &op {
            RelOp::Get(t) => records.push(record(RelAlg::FileScan(*t), vec![], vec![])),
            // Filter passes its input through: a useful order is
            // exploited when the input happens to have one.
            RelOp::Select(p) => records.push(record(
                RelAlg::Filter(p.clone()),
                input_best[0].1.clone(),
                vec![false],
            )),
            RelOp::Project(attrs) => {
                let o = &input_best[0].1;
                let order = if o.iter().all(|a| attrs.contains(a)) {
                    o.clone()
                } else {
                    vec![]
                };
                records.push(record(RelAlg::ProjectOp(attrs.clone()), order, vec![false]));
            }
            RelOp::Join(p) if !p.is_cross() => {
                records.push(record(
                    RelAlg::HybridHashJoin(p.clone()),
                    vec![],
                    vec![false, false],
                ));
                // Merge join: "the cost of enforcers had to be included
                // in the cost function" — fold in a sort for every input
                // whose current best order does not already cover the
                // join keys.
                let keys = [p.left_attrs(), p.right_attrs()];
                let sorts = [0, 1].map(|i| !input_best[i].1.starts_with(&keys[i]));
                let mut merge = record(
                    RelAlg::MergeJoin(p.clone()),
                    keys[0].clone(),
                    sorts.to_vec(),
                );
                for i in (0..2).filter(|&i| sorts[i]) {
                    let sort = RelAlg::Sort(keys[i].as_slice().into());
                    merge.local = merge.local.add(&self.cost(&sort, &[reads[i]], reads[i]));
                }
                records.push(merge);
            }
            RelOp::Join(_) => {}
            RelOp::Union => records.push(record(RelAlg::HashUnion, vec![], vec![false, false])),
            RelOp::Intersect => {
                records.push(record(RelAlg::HashIntersect, vec![], vec![false, false]))
            }
            RelOp::Difference => {
                records.push(record(RelAlg::HashDifference, vec![], vec![false, false]))
            }
            RelOp::Aggregate(spec) => records.push(record(
                RelAlg::HashAggregate(spec.clone()),
                vec![],
                vec![false],
            )),
            // Split aggregates exist only inside the Volcano optimizer's
            // search space (the aggregate-split transformation); they
            // never reach this greedy mesh, whose input is the user's
            // logical expression.
            RelOp::PartialAggregate(_) | RelOp::FinalAggregate(_) => {}
        }

        // Complete totals and pick the best record.
        let input_total = input_best
            .iter()
            .fold(RelCost::zero(), |acc, (c, _)| acc.add(c));
        for r in &mut records {
            r.total = r.local.add(&input_total);
        }
        if records.is_empty() {
            return;
        }
        let n = self.mesh.node_mut(node);
        let base = n.records.len();
        n.records.extend(records);
        self.mesh.records_appended += (self.mesh.node(node).records.len() - base) as u64;
        let best_idx = {
            let n = self.mesh.node(node);
            let mut bi = base;
            for i in base..n.records.len() {
                if n.records[i].total.cheaper_than(&n.records[bi].total) {
                    bi = i;
                }
            }
            // Keep an older record if it is still cheaper (can happen
            // after class merges shuffle input bests).
            match n.best {
                Some(old) if !n.records[bi].total.cheaper_than(&n.records[old].total) => old,
                _ => bi,
            }
        };
        self.mesh.node_mut(node).best = Some(best_idx);
    }

    /// The model's one cost function for a serial algorithm, under the
    /// model's hash-join memory.
    fn cost(&self, alg: &RelAlg, reads: &[&RelLogical], out: &RelLogical) -> RelCost {
        local_cost(
            alg,
            reads,
            out,
            1,
            self.model.options().hash_join_memory_bytes,
        )
    }

    /// If `node`'s plan improves its class best, reanalyze all consumer
    /// nodes transitively — the EXODUS time sink: "for larger queries,
    /// most of the time was spent reanalyzing existing plans".
    fn propagate(&mut self, node: NodeId) {
        let mut worklist = vec![node];
        while let Some(n) = worklist.pop() {
            let Some(best_idx) = self.mesh.node(n).best else {
                continue;
            };
            let (total, order) = {
                let nd = self.mesh.node(n);
                (
                    nd.records[best_idx].total,
                    nd.records[best_idx].order.clone(),
                )
            };
            let class = self.mesh.node(n).class;
            let improved = match &self.mesh.class(class).best {
                None => true,
                Some((_, c, _)) => total.cheaper_than(c),
            };
            if !improved {
                continue;
            }
            self.mesh.class_mut(class).best = Some((n, total, order));
            for parent in self.mesh.class_parents(class) {
                self.stats.reanalyses += 1;
                self.analyze(parent);
                worklist.push(parent);
            }
        }
    }

    /// Materialize the best plan for a class, inserting the implicit
    /// sorts the analysis folded into algorithm costs, plus a final sort
    /// if the caller's order requirement is not met by luck.
    fn extract(&self, root: ClassId, order_by: &[AttrId]) -> (Plan<RelModel>, RelCost) {
        let plan = self.extract_class(root);
        let covered = {
            let have = &plan.delivered.sort;
            order_by.len() <= have.len() && have[..order_by.len()] == order_by[..]
        };
        if order_by.is_empty() || covered {
            let cost = plan.cost;
            return (plan, cost);
        }
        let logical = &self.mesh.class(root).logical;
        let alg = RelAlg::Sort(order_by.into());
        let sort_cost = self.cost(&alg, &[logical], logical);
        let total = plan.cost.add(&sort_cost);
        let sorted = Plan {
            alg,
            delivered: RelProps::sorted(order_by),
            local_cost: sort_cost,
            cost: total,
            group: GroupId::from_index(root.0 as usize),
            inputs: vec![plan],
        };
        (sorted, total)
    }

    fn extract_class(&self, class: ClassId) -> Plan<RelModel> {
        let (node, _, _) = self
            .mesh
            .class(class)
            .best
            .as_ref()
            .expect("extracting a class without a best plan");
        let nd = self.mesh.node(*node);
        let rec = &nd.records[nd.best.expect("best record")];
        let mut inputs = Vec::with_capacity(nd.inputs.len());
        let mut base_local = rec.local;
        for (i, &ic) in nd.inputs.iter().enumerate() {
            let mut child = self.extract_class(ic);
            if *rec.input_sorts.get(i).unwrap_or(&false) {
                let keys = match &rec.alg {
                    RelAlg::MergeJoin(p) => {
                        if i == 0 {
                            p.left_attrs()
                        } else {
                            p.right_attrs()
                        }
                    }
                    _ => vec![],
                };
                let logical = &self.mesh.class(ic).logical;
                let alg = RelAlg::Sort(keys.as_slice().into());
                let sc = self.cost(&alg, &[logical], logical);
                base_local = base_local.sub_saturating(&sc);
                let total = child.cost.add(&sc);
                child = Plan {
                    alg,
                    delivered: RelProps::sorted(keys),
                    local_cost: sc,
                    cost: total,
                    group: GroupId::from_index(ic.0 as usize),
                    inputs: vec![child],
                };
            }
            inputs.push(child);
        }
        Plan {
            alg: rec.alg.clone(),
            delivered: RelProps::sorted(rec.order.clone()),
            local_cost: base_local,
            cost: rec.total,
            group: GroupId::from_index(self.mesh.repr(class).0 as usize),
            inputs,
        }
    }
}
