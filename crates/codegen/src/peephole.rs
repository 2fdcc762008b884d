//! Peephole optimization over linear VM code.
//!
//! Three conservative, branch-target-aware rewrites:
//!
//! 1. **Self-move elimination** — `mov r, r` disappears.
//! 2. **Store-load forwarding** — a `StackLoad` immediately following a
//!    `StackStore` of the same slot becomes a register move (the parked
//!    value is still in its source register). This collapses the
//!    store/reload pairs the code generator's temp discipline produces.
//! 3. **Jump-to-next elimination** — a `Jump` targeting the following
//!    instruction disappears.
//!
//! A rewrite never crosses a branch target: control entering mid-pattern
//! must observe the unoptimized effect. After rewriting, the code is
//! compacted and every branch target remapped.

use lesgs_vm::{Instr, VmFunc};

/// Whether some branch can jump to each instruction index, the end of
/// the code included.
fn branch_targets(code: &[Instr]) -> Vec<bool> {
    let mut targets = vec![false; code.len() + 1];
    for target in code.iter().filter_map(Instr::target) {
        if let Some(t) = targets.get_mut(target as usize) {
            *t = true;
        }
    }
    targets
}

/// Applies one peephole pass to `func`; returns the number of
/// instructions removed or simplified.
#[allow(clippy::needless_range_loop)] // the window scan is index-driven
pub fn peephole(func: &mut VmFunc) -> usize {
    let targets = branch_targets(&func.code);
    let n = func.code.len();
    let mut changed = 0usize;
    // `keep[i]` = false marks a deletion; rewrites happen in place.
    let mut keep = vec![true; n];

    for i in 0..n {
        match &func.code[i] {
            // 1. Self-moves.
            Instr::Mov { dst, src } if dst == src && !targets[i] => {
                keep[i] = false;
                changed += 1;
            }
            // 3. Jump to the immediately following instruction.
            ins @ Instr::Jump { .. } if ins.target() == Some((i + 1) as u32) && !targets[i] => {
                keep[i] = false;
                changed += 1;
            }
            _ => {}
        }
        // 2. Store-load forwarding (needs a window of two).
        if i + 1 < n && !targets[i + 1] {
            if let (
                Instr::StackStore { slot: s1, src, .. },
                Instr::StackLoad { dst, slot: s2, .. },
            ) = (&func.code[i], &func.code[i + 1])
            {
                if s1 == s2 && keep[i] {
                    let (src, dst) = (*src, *dst);
                    func.code[i + 1] = Instr::Mov { dst, src };
                    changed += 1;
                }
            }
        }
    }

    // Compact and remap branch targets.
    if keep.iter().all(|k| *k) {
        // Still may have in-place rewrites; handle self-moves created
        // by forwarding in the next pass.
        return changed;
    }
    let mut new_index = vec![0u32; n + 1];
    let mut next = 0u32;
    for i in 0..n {
        new_index[i] = next;
        if keep[i] {
            next += 1;
        }
    }
    new_index[n] = next;
    let mut code = Vec::with_capacity(next as usize);
    for (i, mut ins) in func.code.drain(..).enumerate() {
        if !keep[i] {
            continue;
        }
        if let Some(target) = ins.target_mut() {
            *target = new_index[*target as usize];
        }
        code.push(ins);
    }
    func.code = code;
    changed
}

/// Runs [`peephole`] to a fixed point (forwarding can expose
/// self-moves, whose deletion can expose jumps-to-next).
pub fn peephole_to_fixpoint(func: &mut VmFunc) -> usize {
    let mut total = 0;
    loop {
        let changed = peephole(func);
        total += changed;
        if changed == 0 {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lesgs_frontend::FuncId;
    use lesgs_ir::machine::{arg_reg, RV};
    use lesgs_vm::{Imm, SlotClass};

    fn func(code: Vec<Instr>) -> VmFunc {
        VmFunc {
            id: FuncId(0),
            name: "test".into(),
            code,
            frame_size: 4,
            n_incoming: 0,
            syntactic_leaf: true,
            call_inevitable: false,
        }
    }

    #[test]
    fn removes_self_moves() {
        let mut f = func(vec![
            Instr::Mov { dst: RV, src: RV },
            Instr::LoadImm {
                dst: RV,
                imm: Imm::Fixnum(1),
            },
            Instr::Halt,
        ]);
        assert!(peephole_to_fixpoint(&mut f) >= 1);
        assert_eq!(f.code.len(), 2);
    }

    #[test]
    fn forwards_store_load() {
        let a0 = arg_reg(0);
        let mut f = func(vec![
            Instr::StackStore {
                slot: 2,
                src: a0,
                class: SlotClass::Temp,
            },
            Instr::StackLoad {
                dst: RV,
                slot: 2,
                class: SlotClass::Temp,
            },
            Instr::Halt,
        ]);
        peephole_to_fixpoint(&mut f);
        assert_eq!(f.code[1], Instr::Mov { dst: RV, src: a0 });
        // The store stays: a later load from another site may need it.
        assert!(matches!(f.code[0], Instr::StackStore { .. }));
    }

    #[test]
    fn forwarding_to_same_register_vanishes() {
        let a0 = arg_reg(0);
        let mut f = func(vec![
            Instr::StackStore {
                slot: 2,
                src: a0,
                class: SlotClass::Temp,
            },
            Instr::StackLoad {
                dst: a0,
                slot: 2,
                class: SlotClass::Temp,
            },
            Instr::Halt,
        ]);
        peephole_to_fixpoint(&mut f);
        assert_eq!(f.code.len(), 2, "{:?}", f.code);
    }

    #[test]
    fn does_not_forward_across_branch_targets() {
        let a0 = arg_reg(0);
        let mut f = func(vec![
            Instr::BranchFalse {
                src: a0,
                target: 2,
                likely: None,
            },
            Instr::StackStore {
                slot: 2,
                src: a0,
                class: SlotClass::Temp,
            },
            // Index 2 is a branch target: the load must survive.
            Instr::StackLoad {
                dst: RV,
                slot: 2,
                class: SlotClass::Temp,
            },
            Instr::Halt,
        ]);
        peephole_to_fixpoint(&mut f);
        assert!(matches!(f.code[2], Instr::StackLoad { .. }), "{:?}", f.code);
    }

    #[test]
    fn removes_jump_to_next_and_remaps() {
        let a0 = arg_reg(0);
        let mut f = func(vec![
            Instr::BranchFalse {
                src: a0,
                target: 3,
                likely: None,
            },
            Instr::Jump { target: 2 }, // jump to next: dead
            Instr::LoadImm {
                dst: RV,
                imm: Imm::Fixnum(1),
            },
            Instr::Halt,
        ]);
        peephole_to_fixpoint(&mut f);
        assert_eq!(f.code.len(), 3);
        // The branch target shifted from 3 to 2.
        assert_eq!(
            f.code[0],
            Instr::BranchFalse {
                src: a0,
                target: 2,
                likely: None
            }
        );
    }

    #[test]
    fn fixpoint_chains_rewrites() {
        let a0 = arg_reg(0);
        // store; load into same reg -> mov a0,a0 -> deleted entirely.
        let mut f = func(vec![
            Instr::StackStore {
                slot: 0,
                src: a0,
                class: SlotClass::Temp,
            },
            Instr::StackLoad {
                dst: a0,
                slot: 0,
                class: SlotClass::Temp,
            },
            Instr::Jump { target: 3 },
            Instr::Halt,
        ]);
        peephole_to_fixpoint(&mut f);
        assert_eq!(
            f.code,
            vec![
                Instr::StackStore {
                    slot: 0,
                    src: a0,
                    class: SlotClass::Temp
                },
                Instr::Halt,
            ]
        );
    }
}
