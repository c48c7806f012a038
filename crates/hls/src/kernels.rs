//! The nine evaluation kernels of the paper (Table I), hand-lowered to
//! elastic dataflow circuits the way Dynamatic lowers their C sources.
//!
//! Each constructor takes a size parameter `n` and returns a [`Kernel`]
//! bundling the circuit, its loop back edges, and the expected results
//! computed by a bit-exact software reference (16-bit wrapping integer
//! arithmetic — the float kernels of the suites are integer-adapted, see
//! DESIGN.md).

use crate::builder::{BuiltKernel, KernelBuilder};
use crate::data::{add16, mul16, signed16, sub16, Lcg};
use dataflow::{BufferSpec, ChannelId, Graph, MemoryId};

/// A benchmark kernel: circuit + reference results.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel name (matches Table I of the paper).
    pub name: &'static str,
    /// The built circuit.
    built: BuiltKernel,
    /// Expected exit-token payload, if the kernel returns a value.
    pub expected_exit: Option<u64>,
    /// Expected final contents per memory written by the kernel.
    pub expected_mems: Vec<(MemoryId, Vec<u64>)>,
    /// A safe simulation budget.
    pub max_cycles: u64,
}

impl Kernel {
    /// The dataflow circuit.
    pub fn graph(&self) -> &Graph {
        &self.built.graph
    }

    /// Loop back-edge channels (must carry buffers for the circuit to be
    /// sequential).
    pub fn back_edges(&self) -> &[ChannelId] {
        &self.built.back_edges
    }

    /// A copy of the graph with [`BufferSpec::FULL`] buffers on every back
    /// edge — the legal starting point of any flow (Figure 4 of the
    /// paper).
    pub fn seeded_graph(&self) -> Graph {
        let mut g = self.built.graph.clone();
        for &ch in &self.built.back_edges {
            g.set_buffer(ch, BufferSpec::FULL);
        }
        g
    }
}

/// All nine kernels at evaluation size.
pub fn all_kernels() -> Vec<Kernel> {
    vec![
        insertion_sort(32),
        stencil_2d(8),
        covariance(8),
        gsum(128),
        gsumif(128),
        gaussian(8),
        matrix(8),
        mvt(8),
        gemver(8),
    ]
}

/// All nine kernels at reduced (test) size.
pub fn all_kernels_small() -> Vec<Kernel> {
    vec![
        insertion_sort(8),
        stencil_2d(5),
        covariance(4),
        gsum(16),
        gsumif(16),
        gaussian(5),
        matrix(4),
        mvt(4),
        gemver(4),
    ]
}

/// `gsum`: guarded accumulation — `s += a[i]` only for non-negative
/// elements.
pub fn gsum(n: usize) -> Kernel {
    let mut rng = Lcg::new(0xD5);
    let a = rng.vec_signed(n, 200);
    // Reference.
    let mut s = 0u64;
    for &d in &a {
        if signed16(d) >= 0 {
            s = add16(s, d);
        }
    }

    let mut k = KernelBuilder::new("gsum", 16);
    let ma = k.memory("a", n, a);
    let lo = k.constant(0);
    let hi = k.constant(n as u64);
    let s0 = k.constant(0);
    let lp = k.loop_start(lo, hi, &[("s", s0)], &[]);
    let d = k.load(ma, lp.i());
    let zero = k.constant(0);
    let cond = k.ge(d, zero);
    let s1 = k.add(lp.var("s"), d);
    let s2 = k.select(cond, s1, lp.var("s"));
    let done = k.loop_end(lp, &[("s", s2)]);
    let built = k.finish_with_value(done.var("s")).expect("gsum builds");
    Kernel {
        name: "gsum",
        built,
        expected_exit: Some(s),
        expected_mems: vec![],
        max_cycles: 64 * n as u64 + 1000,
    }
}

/// `gsumif`: accumulation with a data-dependent if/else —
/// `s += d >= 0 ? 3*d : d >> 2` (both sides if-converted, as Dynamatic's
/// fast-token delivery does for short branches).
pub fn gsumif(n: usize) -> Kernel {
    let mut rng = Lcg::new(0x51F);
    let a = rng.vec_signed(n, 200);
    let mut s = 0u64;
    for &d in &a {
        if signed16(d) >= 0 {
            s = add16(s, mul16(3, d));
        } else {
            s = add16(s, d >> 2);
        }
    }

    let mut k = KernelBuilder::new("gsumif", 16);
    let ma = k.memory("a", n, a);
    let lo = k.constant(0);
    let hi = k.constant(n as u64);
    let s0 = k.constant(0);
    let lp = k.loop_start(lo, hi, &[("s", s0)], &[]);
    let d = k.load(ma, lp.i());
    let zero = k.constant(0);
    let c3 = k.constant(3);
    let cond = k.ge(d, zero);
    let t1 = k.mul(c3, d);
    let s1 = k.add(lp.var("s"), t1);
    let t2 = k.shr(d, 2);
    let s2 = k.add(lp.var("s"), t2);
    let s3 = k.select(cond, s1, s2);
    let done = k.loop_end(lp, &[("s", s3)]);
    let built = k.finish_with_value(done.var("s")).expect("gsumif builds");
    Kernel {
        name: "gsumif",
        built,
        expected_exit: Some(s),
        expected_mems: vec![],
        max_cycles: 96 * n as u64 + 1000,
    }
}

/// `gaussian`: triangular elimination update
/// `for i { for j in i+1..n { c[j] -= A[i][j] * c[i] } }` with an 8-wide
/// row stride.
pub fn gaussian(n: usize) -> Kernel {
    assert!(n <= 8, "row stride is fixed at 8");
    let stride = 8usize;
    let mut rng = Lcg::new(0x6A);
    let a = rng.vec(stride * n, 16);
    let c_init = rng.vec(n.max(stride), 16);
    // Reference.
    let mut c = c_init.clone();
    for i in 0..n {
        for j in (i + 1)..n {
            let prod = mul16(a[i * stride + j], c[i]);
            c[j] = sub16(c[j], prod);
        }
    }

    let mut k = KernelBuilder::new("gaussian", 16);
    let ma = k.memory("a", stride * n, a);
    let mc = k.memory("c", n.max(stride), c_init);
    let lo = k.constant(0);
    let hi = k.constant(n as u64);
    let outer = k.loop_start(lo, hi, &[], &[]);
    let i = outer.i();
    let ci = k.load(mc, i);
    let row = k.shl(i, 3);
    let one = k.constant(1);
    let jlo = k.add(i, one);
    let jhi = k.constant(n as u64);
    let inner = k.loop_start(jlo, jhi, &[], &[("ci", ci), ("row", row)]);
    let j = inner.i();
    let addr = k.add(inner.var("row"), j);
    let av = k.load(ma, addr);
    let prod = k.mul(av, inner.var("ci"));
    let cj = k.load(mc, j);
    let cj2 = k.sub(cj, prod);
    let done = k.store(mc, j, cj2);
    k.seq(done);
    let _ie = k.loop_end(inner, &[]);
    let _oe = k.loop_end(outer, &[]);
    let built = k.finish_with_ctrl().expect("gaussian builds");
    Kernel {
        name: "gaussian",
        built,
        expected_exit: None,
        expected_mems: vec![(mc, c)],
        max_cycles: 256 * (n * n) as u64 + 2000,
    }
}

/// `insertion_sort`: the classic doubly nested sort with a data-dependent
/// inner `while` loop.
pub fn insertion_sort(n: usize) -> Kernel {
    let mut rng = Lcg::new(0x5042);
    let a_init = rng.vec(n, 1000);
    let mut sorted = a_init.clone();
    sorted.sort_unstable_by_key(|&v| signed16(v));

    let mut k = KernelBuilder::new("insertion_sort", 16);
    let ma = k.memory("a", n, a_init);
    let lo = k.constant(1);
    let hi = k.constant(n as u64);
    let outer = k.loop_start(lo, hi, &[], &[]);
    let i = outer.i();
    let key = k.load(ma, i);
    let one = k.constant(1);
    let j0 = k.sub(i, one);
    let mut wl = k.while_start(&[("j", j0)], &[("key", key)]);
    // Header: cond = j >= 0 && a[j] > key (with a clamped speculative load).
    let jh = wl.var("j");
    let keyh = wl.var("key");
    let zero = k.constant(0);
    let jge = k.ge(jh, zero);
    let addr = k.select(jge, jh, zero);
    let aj = k.load(ma, addr);
    let gt = k.gt(aj, keyh);
    let cond = k.band(jge, gt);
    k.while_cond(&mut wl, cond, &[("aj", aj)]);
    // Body: a[j+1] = a[j]; j -= 1.
    let jb = wl.var("j");
    let ajb = wl.var("aj");
    let oneb = k.constant(1);
    let jp1 = k.add(jb, oneb);
    let done = k.store(ma, jp1, ajb);
    k.seq(done);
    let onec = k.constant(1);
    let jn = k.sub(jb, onec);
    let we = k.while_end(wl, &[("j", jn)]);
    // a[j+1] = key.
    let oned = k.constant(1);
    let dst = k.add(we.var("j"), oned);
    let done2 = k.store(ma, dst, we.var("key"));
    k.seq(done2);
    let _oe = k.loop_end(outer, &[]);
    let built = k.finish_with_ctrl().expect("insertion_sort builds");
    Kernel {
        name: "insertion_sort",
        built,
        expected_exit: None,
        expected_mems: vec![(ma, sorted)],
        max_cycles: 512 * (n * n) as u64 + 2000,
    }
}

/// `stencil_2d` (MachSuite): 3×3 filtered stencil over an `n×n` grid with
/// an 8-wide row stride.
pub fn stencil_2d(n: usize) -> Kernel {
    assert!((3..=8).contains(&n), "grid must fit the 8-wide stride");
    let stride = 8usize;
    let mut rng = Lcg::new(0x57E);
    let orig = rng.vec(stride * n, 64);
    let filt = rng.vec(9, 8);
    let out_len = stride * n;
    let mut sol = vec![0u64; out_len];
    for r in 0..n - 2 {
        for c in 0..n - 2 {
            let mut t = 0u64;
            for k1 in 0..3 {
                for k2 in 0..3 {
                    let prod = mul16(orig[(r + k1) * stride + (c + k2)], filt[k1 * 3 + k2]);
                    t = add16(t, prod);
                }
            }
            sol[r * stride + c] = t;
        }
    }

    let mut k = KernelBuilder::new("stencil_2d", 16);
    let morig = k.memory("orig", stride * n, orig);
    let mfilt = k.memory("filt", 9, filt);
    let msol = k.memory("sol", out_len, vec![0; out_len]);
    let bound = (n - 2) as u64;
    let rlo = k.constant(0);
    let rhi = k.constant(bound);
    let rl = k.loop_start(rlo, rhi, &[], &[]);
    let r = rl.i();
    let clo = k.constant(0);
    let chi = k.constant(bound);
    let cl = k.loop_start(clo, chi, &[], &[("r", r)]);
    let c = cl.i();
    let t0 = k.constant(0);
    let k1lo = k.constant(0);
    let k1hi = k.constant(3);
    let l1 = k.loop_start(k1lo, k1hi, &[("t", t0)], &[("r", cl.var("r")), ("c", c)]);
    let k1 = l1.i();
    let k2lo = k.constant(0);
    let k2hi = k.constant(3);
    let rr = k.add(l1.var("r"), k1);
    let rowbase = k.shl(rr, 3);
    // filter row base: k1 * 3 = (k1 << 1) + k1.
    let k1x2 = k.shl(k1, 1);
    let fbase = k.add(k1x2, k1);
    let l2 = k.loop_start(
        k2lo,
        k2hi,
        &[("t", l1.var("t"))],
        &[("c", l1.var("c")), ("rowbase", rowbase), ("fbase", fbase)],
    );
    let k2 = l2.i();
    let col = k.add(l2.var("c"), k2);
    let oaddr = k.add(l2.var("rowbase"), col);
    let ov = k.load(morig, oaddr);
    let faddr = k.add(l2.var("fbase"), k2);
    let fv = k.load(mfilt, faddr);
    let prod = k.mul(ov, fv);
    let t2 = k.add(l2.var("t"), prod);
    let l2e = k.loop_end(l2, &[("t", t2)]);
    let l1e = k.loop_end(l1, &[("t", l2e.var("t"))]);
    // sol[r*8 + c] = t.
    let rb = k.shl(cl.var("r"), 3);
    let saddr = k.add(rb, c);
    let done = k.store(msol, saddr, l1e.var("t"));
    k.seq(done);
    let _ce = k.loop_end(cl, &[]);
    let _re = k.loop_end(rl, &[]);
    let built = k.finish_with_ctrl().expect("stencil builds");
    Kernel {
        name: "stencil_2d",
        built,
        expected_exit: None,
        expected_mems: vec![(msol, sol)],
        max_cycles: 4096 * (n * n) as u64 + 4000,
    }
}

/// `covariance` (PolyBench, integer-adapted): column means (power-of-two
/// divide), mean subtraction, then the covariance matrix.
pub fn covariance(n: usize) -> Kernel {
    assert!(n == 4 || n == 8, "column count must be 4 or 8");
    let rows = 8usize; // power of two for the mean shift
    let m = n; // columns
    let mut rng = Lcg::new(0xC0);
    let data_init = rng.vec(rows * m, 64);
    // Reference.
    let mut data = data_init.clone();
    let mut mean = vec![0u64; m];
    for (j, mj) in mean.iter_mut().enumerate() {
        let mut s = 0u64;
        for i in 0..rows {
            s = add16(s, data[i * m + j]);
        }
        *mj = s >> 3; // rows = 8
    }
    for i in 0..rows {
        for j in 0..m {
            data[i * m + j] = sub16(data[i * m + j], mean[j]);
        }
    }
    let mut cov = vec![0u64; m * m];
    for j1 in 0..m {
        for j2 in 0..m {
            let mut s = 0u64;
            for i in 0..rows {
                s = add16(s, mul16(data[i * m + j1], data[i * m + j2]));
            }
            cov[j1 * m + j2] = s;
        }
    }

    let colshift = if m == 4 { 2 } else { 3 };
    let mut k = KernelBuilder::new("covariance", 16);
    let mdata = k.memory("data", rows * m, data_init);
    let mmean = k.memory("mean", m, vec![0; m]);
    let mcov = k.memory("cov", m * m, vec![0; m * m]);

    // Pass 1: means.
    let jlo = k.constant(0);
    let jhi = k.constant(m as u64);
    let lj = k.loop_start(jlo, jhi, &[], &[]);
    let j = lj.i();
    let s0 = k.constant(0);
    let ilo = k.constant(0);
    let ihi = k.constant(rows as u64);
    let li = k.loop_start(ilo, ihi, &[("s", s0)], &[("j", j)]);
    let i = li.i();
    let rowb = k.shl(i, colshift);
    let addr = k.add(rowb, li.var("j"));
    let v = k.load(mdata, addr);
    let s1 = k.add(li.var("s"), v);
    let lie = k.loop_end(li, &[("s", s1)]);
    let meanv = k.shr(lie.var("s"), 3);
    let done = k.store(mmean, lj.i(), meanv);
    k.seq(done);
    let _lje = k.loop_end(lj, &[]);

    // Pass 2: subtract means.
    let ilo2 = k.constant(0);
    let ihi2 = k.constant(rows as u64);
    let li2 = k.loop_start(ilo2, ihi2, &[], &[]);
    let i2 = li2.i();
    let jlo2 = k.constant(0);
    let jhi2 = k.constant(m as u64);
    let rb2 = k.shl(i2, colshift);
    let lj2 = k.loop_start(jlo2, jhi2, &[], &[("rb", rb2)]);
    let j2 = lj2.i();
    let addr2 = k.add(lj2.var("rb"), j2);
    let dv = k.load(mdata, addr2);
    let mv = k.load(mmean, j2);
    let nv = k.sub(dv, mv);
    let done2 = k.store(mdata, addr2, nv);
    k.seq(done2);
    let _ = k.loop_end(lj2, &[]);
    let _ = k.loop_end(li2, &[]);

    // Pass 3: covariance.
    let l1lo = k.constant(0);
    let l1hi = k.constant(m as u64);
    let lj1 = k.loop_start(l1lo, l1hi, &[], &[]);
    let j1 = lj1.i();
    let l2lo = k.constant(0);
    let l2hi = k.constant(m as u64);
    let lj2b = k.loop_start(l2lo, l2hi, &[], &[("j1", j1)]);
    let j2b = lj2b.i();
    let s0b = k.constant(0);
    let i3lo = k.constant(0);
    let i3hi = k.constant(rows as u64);
    let li3 = k.loop_start(
        i3lo,
        i3hi,
        &[("s", s0b)],
        &[("j1", lj2b.var("j1")), ("j2", j2b)],
    );
    let i3 = li3.i();
    let rb3 = k.shl(i3, colshift);
    let a1 = k.add(rb3, li3.var("j1"));
    let v1 = k.load(mdata, a1);
    let rb4 = k.shl(i3, colshift);
    let a2 = k.add(rb4, li3.var("j2"));
    let v2 = k.load(mdata, a2);
    let p = k.mul(v1, v2);
    let s2b = k.add(li3.var("s"), p);
    let li3e = k.loop_end(li3, &[("s", s2b)]);
    let cb = k.shl(lj2b.var("j1"), colshift);
    let caddr = k.add(cb, j2b);
    let done3 = k.store(mcov, caddr, li3e.var("s"));
    k.seq(done3);
    let _ = k.loop_end(lj2b, &[]);
    let _ = k.loop_end(lj1, &[]);

    let built = k.finish_with_ctrl().expect("covariance builds");
    Kernel {
        name: "covariance",
        built,
        expected_exit: None,
        expected_mems: vec![(mmean, mean), (mcov, cov), (mdata, data)],
        max_cycles: 1024 * (m * m * rows) as u64 + 4000,
    }
}

/// `matrix`: dense `n×n` matrix multiplication with an 8-wide row stride.
pub fn matrix(n: usize) -> Kernel {
    assert!(n <= 8);
    let stride = 8usize;
    let mut rng = Lcg::new(0x3A7);
    let a = rng.vec(stride * n, 32);
    let b = rng.vec(stride * n, 32);
    let mut c = vec![0u64; stride * n];
    for i in 0..n {
        for j in 0..n {
            let mut s = 0u64;
            for kk in 0..n {
                s = add16(s, mul16(a[i * stride + kk], b[kk * stride + j]));
            }
            c[i * stride + j] = s;
        }
    }

    let mut k = KernelBuilder::new("matrix", 16);
    let ma = k.memory("a", stride * n, a);
    let mb = k.memory("b", stride * n, b);
    let mc = k.memory("c", stride * n, vec![0; stride * n]);
    let ilo = k.constant(0);
    let ihi = k.constant(n as u64);
    let li = k.loop_start(ilo, ihi, &[], &[]);
    let i = li.i();
    let jlo = k.constant(0);
    let jhi = k.constant(n as u64);
    let ib = k.shl(i, 3);
    let lj = k.loop_start(jlo, jhi, &[], &[("ib", ib)]);
    let j = lj.i();
    let s0 = k.constant(0);
    let klo = k.constant(0);
    let khi = k.constant(n as u64);
    let lk = k.loop_start(klo, khi, &[("s", s0)], &[("ib", lj.var("ib")), ("j", j)]);
    let kk = lk.i();
    let aaddr = k.add(lk.var("ib"), kk);
    let av = k.load(ma, aaddr);
    let kb = k.shl(kk, 3);
    let baddr = k.add(kb, lk.var("j"));
    let bv = k.load(mb, baddr);
    let p = k.mul(av, bv);
    let s1 = k.add(lk.var("s"), p);
    let lke = k.loop_end(lk, &[("s", s1)]);
    let caddr = k.add(lj.var("ib"), j);
    let done = k.store(mc, caddr, lke.var("s"));
    k.seq(done);
    let _ = k.loop_end(lj, &[]);
    let _ = k.loop_end(li, &[]);
    let built = k.finish_with_ctrl().expect("matrix builds");
    Kernel {
        name: "matrix",
        built,
        expected_exit: None,
        expected_mems: vec![(mc, c)],
        max_cycles: 512 * (n * n * n) as u64 + 4000,
    }
}

/// `mvt` (PolyBench): `x1 += A·y1` and `x2 += Aᵀ·y2`, two sequential
/// matrix-vector nests sharing `A`.
pub fn mvt(n: usize) -> Kernel {
    assert!(n <= 8);
    let stride = 8usize;
    let mut rng = Lcg::new(0x347);
    let a = rng.vec(stride * n, 32);
    let x1_init = rng.vec(n, 32);
    let x2_init = rng.vec(n, 32);
    let y1 = rng.vec(n, 32);
    let y2 = rng.vec(n, 32);
    let mut x1 = x1_init.clone();
    let mut x2 = x2_init.clone();
    for i in 0..n {
        let mut s = x1[i];
        for j in 0..n {
            s = add16(s, mul16(a[i * stride + j], y1[j]));
        }
        x1[i] = s;
    }
    for i in 0..n {
        let mut s = x2[i];
        for j in 0..n {
            s = add16(s, mul16(a[j * stride + i], y2[j]));
        }
        x2[i] = s;
    }

    let mut k = KernelBuilder::new("mvt", 16);
    let ma = k.memory("a", stride * n, a);
    let mx1 = k.memory("x1", n, x1_init);
    let mx2 = k.memory("x2", n, x2_init);
    let my1 = k.memory("y1", n, y1);
    let my2 = k.memory("y2", n, y2);

    // Nest 1.
    let ilo = k.constant(0);
    let ihi = k.constant(n as u64);
    let li = k.loop_start(ilo, ihi, &[], &[]);
    let i = li.i();
    let s0 = k.load(mx1, i);
    let ib = k.shl(i, 3);
    let jlo = k.constant(0);
    let jhi = k.constant(n as u64);
    let lj = k.loop_start(jlo, jhi, &[("s", s0)], &[("ib", ib)]);
    let j = lj.i();
    let aaddr = k.add(lj.var("ib"), j);
    let av = k.load(ma, aaddr);
    let yv = k.load(my1, j);
    let p = k.mul(av, yv);
    let s1 = k.add(lj.var("s"), p);
    let lje = k.loop_end(lj, &[("s", s1)]);
    let done = k.store(mx1, li.i(), lje.var("s"));
    k.seq(done);
    let _ = k.loop_end(li, &[]);

    // Nest 2 (transposed access).
    let ilo2 = k.constant(0);
    let ihi2 = k.constant(n as u64);
    let li2 = k.loop_start(ilo2, ihi2, &[], &[]);
    let i2 = li2.i();
    let s02 = k.load(mx2, i2);
    let jlo2 = k.constant(0);
    let jhi2 = k.constant(n as u64);
    let lj2 = k.loop_start(jlo2, jhi2, &[("s", s02)], &[("i", i2)]);
    let j2 = lj2.i();
    let jb = k.shl(j2, 3);
    let aaddr2 = k.add(jb, lj2.var("i"));
    let av2 = k.load(ma, aaddr2);
    let yv2 = k.load(my2, j2);
    let p2 = k.mul(av2, yv2);
    let s12 = k.add(lj2.var("s"), p2);
    let lj2e = k.loop_end(lj2, &[("s", s12)]);
    let done2 = k.store(mx2, li2.i(), lj2e.var("s"));
    k.seq(done2);
    let _ = k.loop_end(li2, &[]);

    let built = k.finish_with_ctrl().expect("mvt builds");
    Kernel {
        name: "mvt",
        built,
        expected_exit: None,
        expected_mems: vec![(mx1, x1), (mx2, x2)],
        max_cycles: 512 * (n * n) as u64 + 4000,
    }
}

/// `gemver` (PolyBench, integer-adapted): rank-2 update of `A`, then
/// `x = z + Aᵀ·y`, then `w = 2·(A·x)`.
pub fn gemver(n: usize) -> Kernel {
    assert!(n <= 8);
    let stride = 8usize;
    let mut rng = Lcg::new(0x63);
    let a_init = rng.vec(stride * n, 16);
    let u1 = rng.vec(n, 16);
    let v1 = rng.vec(n, 16);
    let u2 = rng.vec(n, 16);
    let v2 = rng.vec(n, 16);
    let y = rng.vec(n, 16);
    let z = rng.vec(n, 16);
    let mut a = a_init.clone();
    for i in 0..n {
        for j in 0..n {
            let t = add16(mul16(u1[i], v1[j]), mul16(u2[i], v2[j]));
            a[i * stride + j] = add16(a[i * stride + j], t);
        }
    }
    let mut x = vec![0u64; n];
    for i in 0..n {
        let mut s = z[i];
        for j in 0..n {
            s = add16(s, mul16(a[j * stride + i], y[j]));
        }
        x[i] = s;
    }
    let mut w = vec![0u64; n];
    for i in 0..n {
        let mut s = 0u64;
        for j in 0..n {
            s = add16(s, mul16(a[i * stride + j], x[j]));
        }
        w[i] = add16(s, s); // alpha = 2 as a shift-free doubling
    }

    let mut k = KernelBuilder::new("gemver", 16);
    let ma = k.memory("a", stride * n, a_init);
    let mu1 = k.memory("u1", n, u1);
    let mv1 = k.memory("v1", n, v1);
    let mu2 = k.memory("u2", n, u2);
    let mv2 = k.memory("v2", n, v2);
    let my = k.memory("y", n, y);
    let mz = k.memory("z", n, z);
    let mx = k.memory("x", n, vec![0; n]);
    let mw = k.memory("w", n, vec![0; n]);

    // Nest 1: A += u1·v1ᵀ + u2·v2ᵀ.
    let ilo = k.constant(0);
    let ihi = k.constant(n as u64);
    let li = k.loop_start(ilo, ihi, &[], &[]);
    let i = li.i();
    let u1v = k.load(mu1, i);
    let u2v = k.load(mu2, i);
    let ib = k.shl(i, 3);
    let jlo = k.constant(0);
    let jhi = k.constant(n as u64);
    let lj = k.loop_start(jlo, jhi, &[], &[("u1", u1v), ("u2", u2v), ("ib", ib)]);
    let j = lj.i();
    let v1v = k.load(mv1, j);
    let v2v = k.load(mv2, j);
    let p1 = k.mul(lj.var("u1"), v1v);
    let p2 = k.mul(lj.var("u2"), v2v);
    let t = k.add(p1, p2);
    let addr = k.add(lj.var("ib"), j);
    let av = k.load(ma, addr);
    let av2 = k.add(av, t);
    let done = k.store(ma, addr, av2);
    k.seq(done);
    let _ = k.loop_end(lj, &[]);
    let _ = k.loop_end(li, &[]);

    // Nest 2: x = z + Aᵀ·y.
    let ilo2 = k.constant(0);
    let ihi2 = k.constant(n as u64);
    let li2 = k.loop_start(ilo2, ihi2, &[], &[]);
    let i2 = li2.i();
    let s0 = k.load(mz, i2);
    let jlo2 = k.constant(0);
    let jhi2 = k.constant(n as u64);
    let lj2 = k.loop_start(jlo2, jhi2, &[("s", s0)], &[("i", i2)]);
    let j2 = lj2.i();
    let jb = k.shl(j2, 3);
    let aaddr = k.add(jb, lj2.var("i"));
    let av3 = k.load(ma, aaddr);
    let yv = k.load(my, j2);
    let p3 = k.mul(av3, yv);
    let s1 = k.add(lj2.var("s"), p3);
    let lj2e = k.loop_end(lj2, &[("s", s1)]);
    let done2 = k.store(mx, li2.i(), lj2e.var("s"));
    k.seq(done2);
    let _ = k.loop_end(li2, &[]);

    // Nest 3: w = 2·(A·x).
    let ilo3 = k.constant(0);
    let ihi3 = k.constant(n as u64);
    let li3 = k.loop_start(ilo3, ihi3, &[], &[]);
    let i3 = li3.i();
    let ib3 = k.shl(i3, 3);
    let s03 = k.constant(0);
    let jlo3 = k.constant(0);
    let jhi3 = k.constant(n as u64);
    let lj3 = k.loop_start(jlo3, jhi3, &[("s", s03)], &[("ib", ib3)]);
    let j3 = lj3.i();
    let aaddr3 = k.add(lj3.var("ib"), j3);
    let av4 = k.load(ma, aaddr3);
    let xv = k.load(mx, j3);
    let p4 = k.mul(av4, xv);
    let s13 = k.add(lj3.var("s"), p4);
    let lj3e = k.loop_end(lj3, &[("s", s13)]);
    let sfin = lj3e.var("s");
    let wfin = k.add(sfin, sfin);
    let done3 = k.store(mw, li3.i(), wfin);
    k.seq(done3);
    let _ = k.loop_end(li3, &[]);

    let built = k.finish_with_ctrl().expect("gemver builds");
    Kernel {
        name: "gemver",
        built,
        expected_exit: None,
        expected_mems: vec![(mx, x), (mw, w), (ma, a)],
        max_cycles: 1024 * (n * n) as u64 + 6000,
    }
}
