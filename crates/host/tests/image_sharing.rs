//! One prepared device image per `ImageId`: rebinds and failover
//! replacements reuse it (layout, bytecode, register estimates) and only
//! re-initialise device memory, so every launch still observes exactly
//! what a freshly loaded device of the same module observes.

mod common;

use std::rc::Rc;
use std::sync::Arc;

use common::{input, quick, scale_add_app};
use nzomp::{compile, BuildConfig};
use nzomp_host::{Host, ImageId, KArg, MapKind, MapSpec, RecoveryPolicy, StreamId};
use nzomp_vgpu::device::Launch;
use nzomp_vgpu::{
    Device, DeviceConfig, DeviceFaultKind, DeviceFaultSite, ExecTier, FaultPlan, KernelMetrics,
    RtVal,
};

const N: usize = 64;

fn launch() -> Launch {
    Launch::new(4, 16)
}

/// What a fresh `Device::load` of `cfg`'s compile of the test app
/// observes for one launch: metrics and the global image after it.
fn direct(cfg: BuildConfig, dev_cfg: &DeviceConfig) -> (KernelMetrics, Vec<u8>) {
    let out = compile(scale_add_app(), cfg).unwrap();
    let mut dev = Device::load(out.module, dev_cfg.clone());
    let a = dev.alloc_f64(&input(N));
    let o = dev.alloc(8 * N as u64);
    let m = dev
        .launch(
            "k",
            launch(),
            &[RtVal::P(a), RtVal::P(o), RtVal::I(N as i64)],
        )
        .unwrap();
    (m, dev.global_bytes().to_vec())
}

/// One mapped launch of `img` on slot `dev`, drained.
fn run(h: &mut Host, s: StreamId, dev: usize, img: ImageId) -> (KernelMetrics, Vec<u8>) {
    h.bind_image(dev, img).unwrap();
    let len = 8 * N as u64;
    let a = h.register_f64(&input(N));
    let o = h.register_zeros(len);
    h.data_enter(s, dev, &[MapSpec::whole(a, len, MapKind::To)])
        .unwrap();
    h.data_enter(s, dev, &[MapSpec::whole(o, len, MapKind::From)])
        .unwrap();
    let args = [KArg::Buf(a), KArg::Buf(o), KArg::Val(RtVal::I(N as i64))];
    let t = h.enqueue_launch(s, dev, "k", launch(), &args).unwrap();
    h.data_exit(
        s,
        dev,
        &[
            MapSpec::whole(a, len, MapKind::Release),
            MapSpec::whole(o, len, MapKind::From),
        ],
    )
    .unwrap();
    h.sync().unwrap();
    let global = h.device(dev).unwrap().global_bytes().to_vec();
    (h.take_metrics(t).unwrap(), global)
}

/// Bind A, bind B, rebind A under a device-loss fault that forces a
/// failover: every launch equals a fresh direct load of its module, on
/// both tiers and at 1 and 8 workers, and the replacement runs on the
/// very image the first bind of A prepared.
#[test]
fn rebind_and_failover_match_a_fresh_load() {
    let (cfg_a, cfg_b) = (BuildConfig::NewRtNoAssumptions, BuildConfig::NewRt);
    for tier in [ExecTier::Interp, ExecTier::Bytecode] {
        for workers in [1, 8] {
            let dev_cfg = DeviceConfig {
                exec_tier: tier,
                worker_threads: workers,
                ..quick()
            };
            let (want_a, want_b) = (direct(cfg_a, &dev_cfg), direct(cfg_b, &dev_cfg));
            let ctx = format!("{tier:?} x {workers} workers");

            let mut h = Host::new(dev_cfg, 1);
            h.set_recovery(Some(RecoveryPolicy::default()));
            let s = h.stream();
            let app = Rc::new(scale_add_app());
            let a = h.load_image(Rc::clone(&app), cfg_a).unwrap();
            let b = h.load_image(app, cfg_b).unwrap();
            assert_ne!(a, b);

            assert_eq!(run(&mut h, s, 0, a), want_a, "{ctx}: first bind of A");
            let image_a = Arc::clone(h.device(0).unwrap().image());
            assert_eq!(run(&mut h, s, 0, b), want_b, "{ctx}: bind of B");
            // Armed now, the loss fires on the next bind's launch
            // (op 0 uploads the input, op 1 launches).
            let lost = FaultPlan {
                device_sites: vec![DeviceFaultSite {
                    after_ops: 1,
                    kind: DeviceFaultKind::Lost,
                }],
                ..FaultPlan::default()
            };
            h.set_device_faults(0, lost).unwrap();
            assert_eq!(
                run(&mut h, s, 0, a),
                want_a,
                "{ctx}: rebind of A with failover"
            );
            assert_eq!(h.recovery_metrics().failovers, 1, "{ctx}");
            assert!(Arc::ptr_eq(h.device(0).unwrap().image(), &image_a), "{ctx}");
        }
    }
}

/// Two slots bound to one image share one lowered bytecode, and repeated
/// loads of one `Rc<Module>` hit the compile cache by identity.
#[test]
fn slots_bound_to_one_image_share_its_bytecode() {
    let dev_cfg = DeviceConfig {
        exec_tier: ExecTier::Bytecode,
        ..quick()
    };
    let mut h = Host::new(dev_cfg, 2);
    let s = h.stream();
    let app = Rc::new(scale_add_app());
    let cfg = BuildConfig::NewRtNoAssumptions;
    let img = h.load_image(Rc::clone(&app), cfg).unwrap();
    let want = run(&mut h, s, 0, img);
    assert_eq!(run(&mut h, s, 1, img), want);
    for _ in 0..4 {
        assert_eq!(h.load_image(Rc::clone(&app), cfg).unwrap(), img);
    }
    assert_eq!(h.compile_stats(), (4, 1));
    let (d0, d1) = (h.device(0).unwrap().image(), h.device(1).unwrap().image());
    assert!(Arc::ptr_eq(d0, d1));
    assert!(
        d0.shares_bytecode(d1),
        "both slots launched on one lowering"
    );
}
