//! Host-speed calibration.
//!
//! On a shared virtual machine the speed of a core drifts with what
//! other tenants run: one binary ran the same suite pass in 0.36–0.76 s
//! within ten minutes, with CPU time equal to wall time, no steal, and
//! almost no run-queue wait. The drift wanders over minutes, so the
//! mean of a run kept a 10–12% spread between runs of every length
//! from 10 s to 60 s. A fixed kernel timed right before and right after
//! each stretch of work slows down with it, and scaling the work's
//! times by `KERNEL_REF_S / kernel time` removes much of that drift
//! (perfbench/README.md has the measurements).
//!
//! The kernel has three phases of about the same length, each a
//! different kind of work the program under test does: a stack-machine
//! interpreter whose state fits in registers and L1, a register-machine
//! interpreter over 4,096 random instructions with data-dependent
//! branches and a 64 KiB table, and a pointer chase through a 4 MiB
//! table that misses the caches. It shares no code with the program
//! under test and allocates nothing after [`Calibrator::new`], so a
//! change to the program moves the scaled times in full.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in seconds, that defines the reference speed: scaled
/// times are what the job would take on a host that runs the kernel
/// in exactly this long.
pub const KERNEL_REF_S: f64 = 0.024;

/// Steps of each phase of one kernel run (about 8 ms each on the
/// 2.1 GHz Xeon vCPU the bounds were measured on).
const STACK_STEPS: i64 = 200_000;
const REGISTER_ROUNDS: usize = 160;
const CHASE_STEPS: usize = 120_000;

/// Entries of the register machine's table (64 KiB) and of the chase
/// table (4 MiB).
const TABLE_WORDS: usize = 1 << 13;
const CHASE_WORDS: usize = 1 << 20;

/// Bytes the kernel's tables keep resident for the whole run;
/// `peak_rss_mb` leaves them out.
pub const RESIDENT_BYTES: usize = TABLE_WORDS * 8 + CHASE_WORDS * 4 + PROGRAM_LEN * 4;

/// Instructions of the register machine's program.
const PROGRAM_LEN: usize = 4096;

#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Mul,
    Rem,
    Lt,
    Dup,
    JumpIfNonZero(usize),
    Halt,
}

/// A stack machine running `acc = (acc * 31 + i) % 1000003` for
/// `i` in `0..n`.
fn stack_machine(n: i64) -> i64 {
    use Op::*;
    let code = [
        Push(0),
        Store(0),
        Push(1),
        Store(1),
        Load(1),
        Push(31),
        Mul,
        Load(0),
        Add,
        Push(1_000_003),
        Rem,
        Store(1),
        Load(0),
        Push(1),
        Add,
        Dup,
        Store(0),
        Load(2),
        Lt,
        JumpIfNonZero(4),
        Halt,
    ];
    let code = black_box(&code[..]);
    let mut mem = [0i64, 0, n];
    let mut stack = [0i64; 8];
    let mut sp = 0;
    let mut pc = 0;
    macro_rules! pop {
        () => {{
            sp -= 1;
            stack[sp]
        }};
    }
    macro_rules! push {
        ($v:expr) => {{
            let v = $v;
            stack[sp] = v;
            sp += 1;
        }};
    }
    loop {
        match code[pc] {
            Push(v) => push!(v),
            Load(a) => push!(mem[a]),
            Store(a) => mem[a] = pop!(),
            Add => {
                let (b, a) = (pop!(), pop!());
                push!(a.wrapping_add(b));
            }
            Mul => {
                let (b, a) = (pop!(), pop!());
                push!(a.wrapping_mul(b));
            }
            Rem => {
                let (b, a) = (pop!(), pop!());
                push!(a % b);
            }
            Lt => {
                let (b, a) = (pop!(), pop!());
                push!((a < b) as i64);
            }
            Dup => push!(stack[sp - 1]),
            JumpIfNonZero(target) => {
                if pop!() != 0 {
                    pc = target;
                    continue;
                }
            }
            Halt => return mem[1],
        }
        pc += 1;
    }
}

/// One instruction of the register machine: an opcode in the low
/// three bits, then three 3-bit register numbers.
type Instr = u32;

/// The kernel's fixed inputs, built once.
struct Tables {
    program: Vec<Instr>,
    table: Vec<u64>,
    /// A random cyclic permutation: following it from any entry visits
    /// every entry once.
    chase: Vec<u32>,
}

impl Tables {
    fn new() -> Tables {
        let mut rng = crate::gen::Rng::new(0x000c_a11b);
        let program = (0..PROGRAM_LEN).map(|_| rng.next_u64() as u32).collect();
        let table = (0..TABLE_WORDS).map(|_| rng.next_u64()).collect();
        // Sattolo's algorithm: a uniformly random single cycle.
        let mut chase: Vec<u32> = (0..CHASE_WORDS as u32).collect();
        for i in (1..CHASE_WORDS).rev() {
            chase.swap(i, rng.below(i as u64) as usize);
        }
        Tables {
            program,
            table,
            chase,
        }
    }

    /// The register machine: `rounds` passes over the program; a
    /// skip instruction jumps over the next one when its register is
    /// odd, which the branch predictor cannot learn.
    fn register_machine(&mut self, rounds: usize) -> u64 {
        let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mask = TABLE_WORDS - 1;
        let program = black_box(&self.program[..]);
        for _ in 0..rounds {
            let mut pc = 0;
            while pc < program.len() {
                let i = program[pc];
                let (a, b, c) = (
                    (i >> 3) as usize & 7,
                    (i >> 6) as usize & 7,
                    (i >> 9) as usize & 7,
                );
                match i & 7 {
                    0 | 6 => r[a] = r[b].wrapping_add(r[c]),
                    1 => r[a] = r[b] ^ r[c].rotate_left(7),
                    2 => r[a] = r[b].wrapping_mul(r[c] | 1),
                    3 => r[a] = self.table[r[b] as usize & mask],
                    4 => self.table[r[b] as usize & mask] = r[a],
                    _ => pc += (r[a] & 1) as usize,
                }
                pc += 1;
            }
        }
        r.iter().fold(0, |x, y| x ^ y)
    }

    fn chase(&self, steps: usize) -> u32 {
        let mut at = 0u32;
        for _ in 0..steps {
            at = self.chase[at as usize];
        }
        at
    }
}

/// Scale factors for consecutive stretches of work, each from the
/// kernel runs just before and just after it.
pub struct Calibrator {
    tables: Tables,
    last_s: f64,
    factors: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut calibrator = Calibrator {
            tables: Tables::new(),
            last_s: 0.0,
            factors: Vec::new(),
        };
        calibrator.last_s = calibrator.kernel_s();
        calibrator
    }

    /// Runs the kernel once and returns its wall time in seconds.
    fn kernel_s(&mut self) -> f64 {
        let t = Instant::now();
        black_box(stack_machine(black_box(STACK_STEPS)));
        black_box(self.tables.register_machine(black_box(REGISTER_ROUNDS)));
        black_box(self.tables.chase(black_box(CHASE_STEPS)));
        t.elapsed().as_secs_f64()
    }

    /// Runs the kernel and returns the factor that scales the work
    /// done since the previous call to the reference speed.
    pub fn factor(&mut self) -> f64 {
        let now_s = self.kernel_s();
        let factor = KERNEL_REF_S / ((self.last_s + now_s) / 2.0);
        self.last_s = now_s;
        self.factors.push(factor);
        factor
    }

    /// The median factor so far: the host's speed relative to the
    /// reference (above 1 is faster).
    pub fn median_factor(&self) -> f64 {
        let mut f = self.factors.clone();
        f.sort_by(f64::total_cmp);
        f.get(f.len() / 2).copied().unwrap_or(1.0)
    }

    pub fn runs(&self) -> usize {
        self.factors.len() + 1
    }
}
