//! Micro-benchmarks of the core hardware structures (LVM, LVM-Stack,
//! renaming, caches, branch predictor) — the per-decode-slot costs a real
//! implementation of the paper's mechanisms would add.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dvi_core::{Lvm, LvmStack};
use dvi_isa::{Abi, ArchReg, RegMask};
use dvi_sim::{CombiningPredictor, PredictorConfig, RenameState, SimConfig};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_structures");
    g.warm_up_time(Duration::from_secs(1)).measurement_time(Duration::from_secs(4));

    let abi = Abi::mips_like();
    g.bench_function("lvm_kill_mask_and_revive", |b| {
        let mut lvm = Lvm::new_all_live();
        b.iter(|| {
            lvm.kill_mask(black_box(abi.idvi_mask()));
            lvm.set_live(ArchReg::new(8));
            black_box(lvm.live_count())
        });
    });

    g.bench_function("lvm_stack_push_pop", |b| {
        let mut stack = LvmStack::new(16);
        let lvm = Lvm::from_live_mask(RegMask::from_range(8, 23));
        b.iter(|| {
            stack.push(black_box(&lvm));
            black_box(stack.pop_or_all_live())
        });
    });

    g.bench_function("rename_and_release", |b| {
        let mut rs = RenameState::new(80);
        b.iter(|| {
            if let Some((_new, Some(o))) = rs.rename_dst(black_box(ArchReg::new(9))) {
                rs.release(o);
            }
            black_box(rs.free_count())
        });
    });

    g.bench_function("l1_dcache_hit", |b| {
        let mut mem = SimConfig::micro97().memory();
        mem.data_access(0x1000);
        b.iter(|| black_box(mem.data_access(black_box(0x1000)).latency));
    });

    g.bench_function("dcache_streaming_misses", |b| {
        let mut mem = SimConfig::micro97().memory();
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(4096);
            black_box(mem.data_access(addr).latency)
        });
    });

    g.bench_function("branch_predict_update", |b| {
        let mut bp = CombiningPredictor::new(PredictorConfig::micro97());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let pc = 0x400 + (i % 64) * 4;
            let taken = !i.is_multiple_of(3);
            let p = bp.predict(pc);
            bp.update(pc, taken);
            black_box(p)
        });
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
