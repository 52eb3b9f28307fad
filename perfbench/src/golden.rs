//! Output checks: values pinned at the default seed, and an independent
//! re-evaluation of every returned tree at any seed.

use fdml_core::config::SearchConfig;
use fdml_phylo::alignment::Alignment;
use fdml_phylo::newick;

/// The seed whose outputs are pinned in `golden.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned outputs, recorded from the unmodified program.
const GOLDEN: &str = include_str!("../golden.txt");

/// Relative tolerance of the re-evaluation check.
const RECHECK_TOLERANCE: f64 = 1e-9;

/// One checked output: a search's final tree, or a daemon job's best.
#[derive(Debug, Clone)]
pub struct Output {
    pub newick: String,
    pub ln_likelihood: f64,
    /// Trees returned (1 for a search; the jumble count for a daemon job).
    pub trees: usize,
}

impl Output {
    /// `fnv64(newick) lnl_bits trees`, the pinned form.
    pub fn fingerprint(&self) -> String {
        format!(
            "{:016x} {:016x} {}",
            fnv64(self.newick.as_bytes()),
            self.ln_likelihood.to_bits(),
            self.trees
        )
    }
}

/// FNV-1a, 64-bit: a stable digest of Newick bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pinned fingerprint of output `index` of `key`
/// (`<workload>/<size>`), if one was recorded.
fn pinned(key: &str, index: usize) -> Option<String> {
    GOLDEN.lines().find_map(|line| {
        let (k, rest) = line.split_once(' ')?;
        let (i, fp) = rest.split_once(' ')?;
        (k == key && i.parse::<usize>().ok()? == index).then(|| fp.to_string())
    })
}

/// Lines to add to `golden.txt` for these outputs.
pub fn pin_lines(key: &str, outputs: &[Output]) -> String {
    outputs
        .iter()
        .enumerate()
        .map(|(i, o)| format!("{key} {i} {}\n", o.fingerprint()))
        .collect()
}

/// Re-evaluate `output`'s tree with a fresh engine built from `alignment`
/// and `config`; true when the likelihood agrees with the reported one.
pub fn recheck(output: &Output, alignment: &Alignment, config: &SearchConfig) -> bool {
    let Ok(tree) = newick::parse_tree(&output.newick, alignment) else {
        return false;
    };
    let lnl = config.build_engine(alignment).evaluate(&tree).ln_likelihood;
    let scale = output.ln_likelihood.abs().max(1.0);
    (lnl - output.ln_likelihood).abs() <= RECHECK_TOLERANCE * scale
}

/// Check every output; returns how many failed. At the default seed each
/// output with a pinned value must match it bit for bit (`corrupt` flips
/// the comparison, the test hook for a forced mismatch). Every output is
/// also re-evaluated independently through `recheck`, and must carry
/// `expect_trees` trees.
pub fn check(
    key: &str,
    seed: u64,
    outputs: &[Output],
    expect_trees: usize,
    corrupt: bool,
    recheck: impl Fn(usize, &Output) -> bool,
) -> usize {
    let mut failed = 0;
    for (i, out) in outputs.iter().enumerate() {
        let mut ok = out.trees == expect_trees && recheck(i, out);
        if seed == DEFAULT_SEED {
            if let Some(fp) = pinned(key, i) {
                ok &= (fp == out.fingerprint()) != corrupt;
            }
        } else if corrupt {
            ok = false;
        }
        if !ok {
            eprintln!(
                "perfbench: {key} output {i} failed its check ({})",
                out.fingerprint()
            );
            failed += 1;
        }
    }
    failed
}
