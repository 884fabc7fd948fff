//! Table 2 checked against what the template does, not only what it
//! says.
//!
//! The `O` and `+` marks are read off the template text
//! (`ClassSpec::marks`): the options a class's gate, guards and splices
//! *name*. This test derives the matrix from
//! the emitted text instead — over every valid combination of the option
//! values in `common`, two option sets that differ in one option only are
//! one group, and an option has an effect on a class when some group
//! emits two different bodies for it — and holds the marks to it, cell by
//! cell: every `+` has an effect, every effect is a `+`, and a gate alters
//! the body it gates through the parameters the body splices or not at
//! all.

mod common;

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use common::VALUES;
use nserver_codegen::crosscut::Mark;
use nserver_codegen::{registry, OptionId};
use nserver_core::options::ServerOptions;

/// One hash per class of the registry: its emitted text under `opts`,
/// `None` where its gate shuts it out.
fn emitted(opts: &ServerOptions) -> Vec<Option<u64>> {
    registry()
        .iter()
        .map(|spec| {
            spec.exists(opts).then(|| {
                let mut h = DefaultHasher::new();
                spec.expand(opts).hash(&mut h);
                h.finish()
            })
        })
        .collect()
}

#[test]
fn declared_crosscuts_are_the_ones_the_template_has() {
    // Keyed by pick; an option set `validate` refuses has no entry.
    let bodies: HashMap<[u8; 12], Vec<Option<u64>>> = common::valid_picks()
        .into_iter()
        .map(|(p, opts)| (p, emitted(&opts)))
        .collect();
    assert!(
        bodies.len() >= 4096,
        "the spread shrank to {} option sets",
        bodies.len()
    );

    // effect[class][option]: some group emitted two different bodies.
    let mut effect = vec![[false; 12]; registry().len()];
    for (p, here) in &bodies {
        for k in 0..12 {
            // The rest of p's group: p with a later value of option k.
            for v in p[k] + 1..VALUES[k] {
                let mut q = *p;
                q[k] = v;
                let Some(there) = bodies.get(&q) else {
                    continue;
                };
                for (class, (a, b)) in here.iter().zip(there).enumerate() {
                    if let (Some(a), Some(b)) = (a, b) {
                        effect[class][k] |= a != b;
                    }
                }
            }
        }
    }

    for (spec, effect) in registry().iter().zip(&effect) {
        // `${options}` is the whole option set as a literal: it names no
        // one option (the paper's Reactor row has no mark at O3 or O7),
        // and a body that splices it follows every option's value.
        let whole_set = spec.parts.iter().any(|part| part.contains("${options}"));
        for ((k, opt), mark) in OptionId::ALL.iter().enumerate().zip(spec.marks()) {
            let cell = format!("{} x {}", spec.name, opt.label());
            match mark {
                // An `O`: the class is there or not. A gate with
                // parameters hands them to the class it gates (the
                // controller's bounds, the cache's policy and capacity)
                // and a gate without has nothing to alter a body with.
                Mark::Gates => {
                    let parameters = spec.named_options().contains(opt);
                    assert_eq!(effect[k], parameters, "{cell}: what a gate alters");
                }
                Mark::Affects => assert!(effect[k], "{cell}: a + with no effect"),
                Mark::None => assert_eq!(effect[k], whole_set, "{cell}: an unmarked effect"),
            }
        }
    }
}
