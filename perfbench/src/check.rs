//! The checks that gate a run. They read the benchmark's own copy of the
//! inputs, never the program's, and test properties the method must have.

use crate::gen::Corpus;
use setdisc_core::tree::{DecisionTree, Node};

/// One question of a session transcript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    pub entity: u32,
    pub yes: bool,
    /// Candidates the program reported after the answer.
    pub candidates: usize,
}

/// What a session did, as the client saw it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript {
    /// Candidates the program reported at create.
    pub initial: usize,
    pub steps: Vec<Step>,
    /// The set the program named as discovered.
    pub discovered: Option<usize>,
}

/// A session is correct when every answer is the truth for its target,
/// every question splits the candidates still consistent with the answers
/// so far, every reported candidate count matches, and the program names
/// exactly the target once one candidate is left.
pub fn check_session(
    corpus: &Corpus,
    view: &[u32],
    target: usize,
    t: &Transcript,
) -> Result<(), String> {
    if t.initial != view.len() {
        return Err(format!(
            "create reported {} candidates, expected {}",
            t.initial,
            view.len()
        ));
    }
    let mut cands: Vec<usize> = view.iter().map(|&s| s as usize).collect();
    let mut next = Vec::with_capacity(cands.len());
    for (i, step) in t.steps.iter().enumerate() {
        let truth = corpus.contains(target, step.entity);
        if step.yes != truth {
            return Err(format!(
                "answer {i} about e{} is not the truth",
                step.entity
            ));
        }
        next.clear();
        next.extend(
            cands
                .iter()
                .filter(|&&s| corpus.contains(s, step.entity) == step.yes),
        );
        // The truthful side holds the target, so the question splits the
        // candidates exactly when the other side is not empty either.
        if next.is_empty() || next.len() == cands.len() {
            return Err(format!(
                "question {i} (e{}) does not split {} candidates",
                step.entity,
                cands.len()
            ));
        }
        std::mem::swap(&mut cands, &mut next);
        if step.candidates != cands.len() {
            return Err(format!(
                "after question {i} the program reported {} candidates, expected {}",
                step.candidates,
                cands.len()
            ));
        }
    }
    if cands != [target] {
        return Err(format!(
            "session ended with {} candidates, expected only the target",
            cands.len()
        ));
    }
    if t.discovered != Some(target) {
        return Err(format!(
            "program discovered {:?}, expected s{target}",
            t.discovered
        ));
    }
    Ok(())
}

/// A decision tree in the benchmark's own form; the root is node 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TNode {
    Leaf(usize),
    Inner { entity: u32, yes: usize, no: usize },
}

pub fn tree_of(dt: &DecisionTree) -> Vec<TNode> {
    let mut out = Vec::with_capacity(dt.n_nodes());
    let mut stack = vec![(dt.root(), 0usize)];
    out.push(TNode::Leaf(usize::MAX));
    while let Some((id, slot)) = stack.pop() {
        out[slot] = match *dt.node(id) {
            Node::Leaf { set } => TNode::Leaf(set.0 as usize),
            Node::Internal { entity, yes, no } => {
                let (y, n) = (out.len(), out.len() + 1);
                out.push(TNode::Leaf(usize::MAX));
                out.push(TNode::Leaf(usize::MAX));
                stack.push((yes, y));
                stack.push((no, n));
                TNode::Inner {
                    entity: entity.0,
                    yes: y,
                    no: n,
                }
            }
        };
    }
    out
}

/// The minimum external path length of a binary tree with `leaves`
/// leaves: no tree over that many sets can have a smaller total depth.
pub fn min_total_depth(leaves: u64) -> u64 {
    if leaves <= 1 {
        return 0;
    }
    let d = 63 - u64::from(leaves.leading_zeros());
    leaves * d + 2 * (leaves - (1 << d))
}

/// Checks a tree built over `view`: every internal node's question splits
/// the sets that reach it into two non-empty sides, every leaf is reached
/// by exactly its own set, and the total depth is at least the minimum
/// external path length. Returns each leaf's `(set, depth)`.
pub fn check_tree(
    corpus: &Corpus,
    view: &[u32],
    tree: &[TNode],
) -> Result<Vec<(usize, u32)>, String> {
    let mut leaves = Vec::with_capacity(view.len());
    let mut stack = vec![(
        0usize,
        view.iter().map(|&s| s as usize).collect::<Vec<_>>(),
        0u32,
    )];
    while let Some((node, sets, depth)) = stack.pop() {
        match tree.get(node) {
            Some(TNode::Leaf(set)) => {
                if sets != [*set] {
                    return Err(format!(
                        "leaf s{set} is reached by {} sets, not exactly by its own",
                        sets.len()
                    ));
                }
                leaves.push((*set, depth));
            }
            Some(&TNode::Inner { entity, yes, no }) => {
                let (y, n): (Vec<usize>, Vec<usize>) =
                    sets.iter().partition(|&&s| corpus.contains(s, entity));
                if y.is_empty() || n.is_empty() {
                    return Err(format!(
                        "question e{entity} does not split {} sets",
                        sets.len()
                    ));
                }
                stack.push((yes, y, depth + 1));
                stack.push((no, n, depth + 1));
            }
            None => return Err(format!("dangling node {node}")),
        }
    }
    if leaves.len() != view.len() {
        return Err(format!("{} leaves for {} sets", leaves.len(), view.len()));
    }
    let total: u64 = leaves.iter().map(|&(_, d)| u64::from(d)).sum();
    if total < min_total_depth(leaves.len() as u64) {
        return Err(format!(
            "total depth {total} is below the minimum for {} leaves",
            leaves.len()
        ));
    }
    Ok(leaves)
}

/// The questions and answers on the root-to-leaf path of `target`.
pub fn path_to(tree: &[TNode], corpus: &Corpus, target: usize) -> Vec<(u32, bool)> {
    let mut path = Vec::new();
    let mut node = 0;
    while let TNode::Inner { entity, yes, no } = tree[node] {
        let inside = corpus.contains(target, entity);
        path.push((entity, inside));
        node = if inside { yes } else { no };
    }
    path
}

/// Sets reaching each node of a tree.
pub fn leaf_counts(tree: &[TNode]) -> Vec<usize> {
    let mut counts = vec![0; tree.len()];
    // Children always follow their parent in `tree_of`'s order.
    for i in (0..tree.len()).rev() {
        counts[i] = match tree[i] {
            TNode::Leaf(_) => 1,
            TNode::Inner { yes, no, .. } => counts[yes] + counts[no],
        };
    }
    counts
}

/// The plan-cache ≡ cache-off contract: a session asks exactly the
/// questions on its target's path in the tree built offline with the same
/// strategy, reports the candidate counts of the nodes on that path, and
/// names its target.
pub fn check_against_tree(
    tree: &[TNode],
    counts: &[usize],
    corpus: &Corpus,
    target: usize,
    t: &Transcript,
) -> Result<(), String> {
    if t.initial != counts[0] {
        return Err(format!(
            "create reported {} candidates, the tree has {}",
            t.initial, counts[0]
        ));
    }
    let mut node = 0;
    for (i, step) in t.steps.iter().enumerate() {
        let TNode::Inner { entity, yes, no } = tree[node] else {
            return Err(format!("question {i} asked past the target's leaf"));
        };
        let inside = corpus.contains(target, entity);
        if step.entity != entity || step.yes != inside {
            return Err(format!(
                "question {i} is (e{}, {}), the offline tree asks (e{entity}, {inside})",
                step.entity, step.yes
            ));
        }
        node = if inside { yes } else { no };
        if step.candidates != counts[node] {
            return Err(format!(
                "after question {i} the program reported {} candidates, the tree has {}",
                step.candidates, counts[node]
            ));
        }
    }
    match (&tree[node], t.discovered) {
        (TNode::Leaf(set), Some(found)) if *set == target && found == target => Ok(()),
        _ => Err(format!(
            "session for s{target} stopped after {} questions at {:?}, discovering {:?}",
            t.steps.len(),
            tree[node],
            t.discovered
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setdisc_core::prelude::*;

    fn corpus() -> Corpus {
        crate::gen::copy_add(
            &crate::gen::CopyAddParams {
                sets: 60,
                size: (4, 7),
                alpha: 0.5,
            },
            11,
        )
    }

    fn tree(c: &Corpus) -> Vec<TNode> {
        let coll = Collection::from_raw_sets(c.sets.clone()).expect("non-empty corpus");
        let mut klp = KLp::<AvgDepth>::new(2);
        tree_of(&build_tree(&coll.full_view(), &mut klp).expect("tree builds"))
    }

    /// A truthful transcript that follows the tree to `target`.
    fn transcript(c: &Corpus, tree: &[TNode], target: usize) -> Transcript {
        let mut cands: Vec<usize> = (0..c.sets.len()).collect();
        let steps = path_to(tree, c, target)
            .into_iter()
            .map(|(entity, yes)| {
                cands.retain(|&s| c.contains(s, entity) == yes);
                Step {
                    entity,
                    yes,
                    candidates: cands.len(),
                }
            })
            .collect();
        Transcript {
            initial: c.sets.len(),
            steps,
            discovered: Some(target),
        }
    }

    #[test]
    fn correct_outputs_pass() {
        let c = corpus();
        let t = tree(&c);
        let view: Vec<u32> = (0..c.sets.len() as u32).collect();
        check_tree(&c, &view, &t).expect("built tree is valid");
        for target in [0, 17, 59] {
            let tr = transcript(&c, &t, target);
            check_session(&c, &view, target, &tr).expect("truthful session passes");
            check_against_tree(&t, &leaf_counts(&t), &c, target, &tr)
                .expect("session follows the tree");
        }
    }

    #[test]
    fn a_flipped_answer_is_rejected() {
        let c = corpus();
        let t = tree(&c);
        let view: Vec<u32> = (0..c.sets.len() as u32).collect();
        let mut tr = transcript(&c, &t, 17);
        let mid = tr.steps.len() / 2;
        tr.steps[mid].yes = !tr.steps[mid].yes;
        assert!(check_session(&c, &view, 17, &tr).is_err());
        assert!(check_against_tree(&t, &leaf_counts(&t), &c, 17, &tr).is_err());
    }

    #[test]
    fn a_session_cut_one_question_short_is_rejected() {
        let c = corpus();
        let t = tree(&c);
        let view: Vec<u32> = (0..c.sets.len() as u32).collect();
        let mut tr = transcript(&c, &t, 17);
        tr.steps.pop();
        assert!(check_session(&c, &view, 17, &tr).is_err());
        assert!(check_against_tree(&t, &leaf_counts(&t), &c, 17, &tr).is_err());
    }

    #[test]
    fn a_tree_with_two_leaves_swapped_is_rejected() {
        let c = corpus();
        let mut t = tree(&c);
        let view: Vec<u32> = (0..c.sets.len() as u32).collect();
        let leaves: Vec<usize> = (0..t.len())
            .filter(|&i| matches!(t[i], TNode::Leaf(_)))
            .collect();
        let (a, b) = (leaves[0], leaves[leaves.len() - 1]);
        t.swap(a, b);
        assert!(check_tree(&c, &view, &t).is_err());
    }

    #[test]
    fn minimum_external_path_length() {
        assert_eq!(min_total_depth(1), 0);
        assert_eq!(min_total_depth(2), 2);
        assert_eq!(min_total_depth(3), 5);
        assert_eq!(min_total_depth(4), 8);
        assert_eq!(min_total_depth(5), 12);
    }
}
