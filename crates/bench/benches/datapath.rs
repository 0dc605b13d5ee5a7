//! Wall-clock benchmarks of the send datapath: a lent blocking rendezvous
//! (the receiver copies straight from the sender's buffer) against the
//! same send staged through `isend` + `wait`, across message sizes, and
//! the pool-backed eager path. Virtual-time results are identical by
//! construction (see `chunk_props`); this group tracks what lending buys
//! in host wall-clock, which is what figure regeneration time is made of.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nonctg_core::Universe;
use nonctg_datatype::{as_bytes, Datatype};
use nonctg_simnet::Platform;

/// One strided-vector rendezvous ping (plus a zero-byte ack so both ranks
/// finish together) through a fresh two-rank universe, lent by a
/// blocking send or staged by `isend`.
fn vector_ping(platform: &Platform, bytes: usize, lent: bool) {
    let elems = bytes / 8;
    Universe::run_pair(platform.clone(), move |comm| {
        if comm.rank() == 0 {
            let src = vec![1.0f64; 2 * elems];
            let t = Datatype::vector(elems, 1, 2, &Datatype::f64()).unwrap().commit();
            if lent {
                comm.send(as_bytes(&src), 0, &t, 1, 1, 1).unwrap();
            } else {
                comm.isend(as_bytes(&src), 0, &t, 1, 1, 1).unwrap().wait(comm).unwrap();
            }
            let mut ack = [0.0f64; 0];
            comm.recv_slice(&mut ack, Some(1), Some(2)).unwrap();
        } else {
            let mut dst = vec![0.0f64; elems];
            comm.recv_slice(&mut dst, Some(0), Some(1)).unwrap();
            comm.send_slice::<f64>(&[], 0, 2).unwrap();
        }
        comm.wtime()
    });
}

fn bench_rendezvous(c: &mut Criterion) {
    let mut g = c.benchmark_group("datapath");
    g.sample_size(10);
    let platform = Platform::skx_impi();
    for shift in [17usize, 20, 24, 27] {
        let bytes = 1usize << shift;
        g.throughput(Throughput::Bytes(bytes as u64));
        g.bench_with_input(BenchmarkId::new("lent", bytes), &bytes, |b, &n| {
            b.iter(|| vector_ping(&platform, n, true));
        });
        g.bench_with_input(BenchmarkId::new("staged", bytes), &bytes, |b, &n| {
            b.iter(|| vector_ping(&platform, n, false));
        });
    }
    g.finish();
}

fn bench_eager_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("datapath_eager");
    g.sample_size(10);
    let platform = Platform::skx_impi();
    // 32 contiguous eager ping-pongs inside one universe: after the first,
    // every payload buffer comes out of the fabric pool with its bytes
    // intact (no memset), so this tracks the zero-copy staging win.
    let elems = 2048; // 16 KiB — below every platform's eager limit.
    g.throughput(Throughput::Bytes((32 * elems * 8) as u64));
    g.bench_function("pooled_32x16KiB", |b| {
        b.iter(|| {
            Universe::run_pair(platform.clone(), move |comm| {
                let src = vec![1.0f64; elems];
                let mut dst = vec![0.0f64; elems];
                for _ in 0..32 {
                    if comm.rank() == 0 {
                        comm.send_slice(&src, 1, 1).unwrap();
                        comm.recv_slice(&mut dst, Some(1), Some(2)).unwrap();
                    } else {
                        comm.recv_slice(&mut dst, Some(0), Some(1)).unwrap();
                        comm.send_slice(&src, 0, 2).unwrap();
                    }
                }
                comm.wtime()
            })
        });
    });
    g.finish();
}

criterion_group!(benches, bench_rendezvous, bench_eager_pool);
criterion_main!(benches);
