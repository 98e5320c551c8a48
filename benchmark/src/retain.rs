//! The benchmark process's allocator: bump allocation in 1 MiB regions that
//! are recycled whole, and memory that is never handed back.
//!
//! Why the benchmark fixes an allocator at all. In the sandbox VM a page
//! obtained from the kernel costs 3 to 50 µs on first touch (measured:
//! 150 k faults cost 0.4 s one moment and 8 s the next), where the
//! transaction or the replayed record that touches it costs 2 to 20 µs.
//! glibc returns freed memory to the kernel and spreads threads over
//! arenas, so every repetition re-faults an unpredictable share of its
//! memory: the same recovery of the same image took 0.8 s or 4.4 s, and no
//! `MALLOC_*` setting removed that without serializing the recovery threads
//! on one arena lock. Here memory the process has touched stays with the
//! process, so after the first repetition the timed regions take no page
//! faults. It is a fixed setting of the benchmark, the same on both sides
//! of any comparison, like the simulated disk.
//!
//! Design. A thread carves blocks of up to `SMALL_MAX` bytes front to back
//! out of its current region; freeing a block only decrements the region's
//! count of outstanding blocks, and a region whose count reaches zero goes
//! back on the stack of free regions to be carved afresh. Nothing is reused
//! at a finer grain, so a repetition — which drops everything it built —
//! leaves whole free regions behind, and the next one allocates through
//! them in address order exactly as it did through fresh memory (per-block
//! free lists were tried first: they hand memory back in the order it was
//! freed, and a scrambled heap made later repetitions up to 50% slower than
//! the first). Larger blocks are kept on per-size-class stacks. Requests
//! aligned beyond 16 bytes go straight to the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::UnsafeCell;
use std::ptr::null_mut;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Guaranteed alignment of every block; stricter requests bypass this
/// allocator.
const ALIGN: usize = 16;
/// Blocks up to this size are carved from regions.
const SMALL_MAX: usize = 64 << 10;
/// Region size and alignment: the region of a block is its address rounded
/// down.
const REGION: usize = 1 << 20;
/// Regions are obtained from the system this many at a time.
const REGIONS_PER_CHUNK: usize = 64;
/// Bytes at the start of a region reserved for its header.
const HEADER: usize = 64;
/// Added to a region's count while a thread is carving it, so that frees
/// cannot drain it before the thread is done with it.
const CARVING: usize = 1 << 40;

/// The header at the start of every region.
#[repr(C)]
struct Region {
    /// Blocks carved and not yet freed, plus `CARVING` while a thread owns
    /// the region.
    outstanding: AtomicUsize,
    /// Link in the stack of free regions (written under `POOL`'s lock).
    next_free: UnsafeCell<*mut Region>,
}

/// Free regions, and the unused rest of the newest chunk.
struct Pool {
    free: *mut Region,
    chunk: *mut u8,
    chunk_regions_left: usize,
}
// SAFETY: the pointers are only used under the mutex and refer to memory
// this allocator owns.
unsafe impl Send for Pool {}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    free: null_mut(),
    chunk: null_mut(),
    chunk_regions_left: 0,
});

/// A free region, with `outstanding` left for the caller to set. Null when
/// the system is out of memory.
fn acquire_region() -> *mut Region {
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if !pool.free.is_null() {
        let region = pool.free;
        // SAFETY: a region on the free stack has no blocks outstanding; its
        // link was written by `recycle` under this lock.
        pool.free = unsafe { *(*region).next_free.get() };
        return region;
    }
    if pool.chunk_regions_left == 0 {
        // SAFETY: non-zero size, power-of-two alignment.
        let layout =
            unsafe { Layout::from_size_align_unchecked(REGION * REGIONS_PER_CHUNK, REGION) };
        // SAFETY: `layout` has non-zero size. The chunk is never freed.
        let chunk = unsafe { System.alloc(layout) };
        if chunk.is_null() {
            return null_mut();
        }
        pool.chunk = chunk;
        pool.chunk_regions_left = REGIONS_PER_CHUNK;
    }
    let region = pool.chunk.cast::<Region>();
    // SAFETY: the chunk holds `chunk_regions_left` more regions.
    pool.chunk = unsafe { pool.chunk.add(REGION) };
    pool.chunk_regions_left -= 1;
    region
}

/// Put a drained region back on the free stack.
fn recycle(region: *mut Region) {
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    // SAFETY: the caller brought `outstanding` to zero, so nobody else
    // refers to the region.
    unsafe { *(*region).next_free.get() = pool.free };
    pool.free = region;
}

/// Drop `n` from the region's count; whoever reaches zero recycles it.
#[inline]
unsafe fn release(region: *mut Region, n: usize) {
    // SAFETY (caller): `region` is a live region header and the caller owns
    // `n` of its outstanding count. AcqRel orders every use of the region's
    // blocks before the recycle that follows the last release.
    if unsafe { (*region).outstanding.fetch_sub(n, Ordering::AcqRel) } == n {
        recycle(region);
    }
}

/// The region a thread is carving.
struct Carver {
    region: *mut Region,
    next: *mut u8,
    left: usize,
    carved: usize,
}

impl Carver {
    /// Give up the current region: from here on its count is just the
    /// blocks still outstanding.
    fn finish(&mut self) {
        if !self.region.is_null() {
            // SAFETY: this thread set the count to `CARVING` and carved
            // `carved` blocks since; frees took the rest.
            unsafe { release(self.region, CARVING - self.carved) };
            self.region = null_mut();
            self.left = 0;
        }
    }

    #[inline]
    fn alloc(&mut self, size: usize) -> *mut u8 {
        if self.left < size {
            self.finish();
            let region = acquire_region();
            if region.is_null() {
                return null_mut();
            }
            // SAFETY: a fresh or recycled region is exclusively ours.
            unsafe { (*region).outstanding.store(CARVING, Ordering::Relaxed) };
            self.region = region;
            // SAFETY: the header fits in the region.
            self.next = unsafe { region.cast::<u8>().add(HEADER) };
            self.left = REGION - HEADER;
            self.carved = 0;
        }
        let block = self.next;
        // SAFETY: `size <= left`, so the block ends inside the region.
        self.next = unsafe { self.next.add(size) };
        self.left -= size;
        self.carved += 1;
        block
    }
}

struct Local(UnsafeCell<Carver>);

impl Drop for Local {
    fn drop(&mut self) {
        self.0.get_mut().finish();
    }
}

thread_local! {
    static LOCAL: Local = const {
        Local(UnsafeCell::new(Carver { region: null_mut(), next: null_mut(), left: 0, carved: 0 }))
    };
}

/// One size class of large blocks: a stack linked through the blocks.
struct Stack(Mutex<*mut u8>);
// SAFETY: the pointer is only used under the mutex and refers to free
// blocks this allocator owns.
unsafe impl Sync for Stack {}

/// Four classes per doubling from 2^16 up to 2^47.
static LARGE: [Stack; 4 * 32] = [const { Stack(Mutex::new(null_mut())) }; 4 * 32];

/// `(class index, class size)` of a large request.
fn large_class(size: usize) -> (usize, usize) {
    // 2^lg < size <= 2^(lg+1), four steps of 2^(lg-2) in between.
    let lg = (usize::BITS - 1 - (size - 1).leading_zeros()) as usize;
    let step = 1usize << (lg - 2);
    let steps = (size - (1 << lg)).div_ceil(step);
    ((lg - 16) * 4 + steps - 1, (1 << lg) + steps * step)
}

/// The allocator (see the module documentation).
pub struct Retain;

// SAFETY: `alloc` returns blocks of at least the requested size, aligned to
// 16 (larger alignments are delegated to `System`), that no other live
// allocation overlaps: a small block is carved once from a region that is
// carved again only after every block in it was freed, and a large block is
// handed out only fresh or after `dealloc` pushed it on its class's stack.
unsafe impl GlobalAlloc for Retain {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.align() > ALIGN {
            // SAFETY: forwarded unchanged.
            return unsafe { System.alloc(layout) };
        }
        if layout.size() <= SMALL_MAX {
            let size = layout.size().max(1).next_multiple_of(ALIGN);
            // SAFETY: the cell is only touched from its own thread, and
            // nothing in `Carver::alloc` re-enters the allocator.
            return LOCAL
                .try_with(|l| unsafe { (*l.0.get()).alloc(size) })
                .unwrap_or_else(|_| {
                    // The thread's carver is already torn down: spend a
                    // whole region on the block.
                    let region = acquire_region();
                    if region.is_null() {
                        return null_mut();
                    }
                    // SAFETY: the region is exclusively ours; one block.
                    unsafe {
                        (*region).outstanding.store(1, Ordering::Relaxed);
                        region.cast::<u8>().add(HEADER)
                    }
                });
        }
        let (class, size) = large_class(layout.size());
        let mut top = LARGE[class].0.lock().unwrap_or_else(|e| e.into_inner());
        let block = *top;
        if block.is_null() {
            drop(top);
            // SAFETY: non-zero size, valid alignment. Never freed.
            return unsafe { System.alloc(Layout::from_size_align_unchecked(size, ALIGN)) };
        }
        // SAFETY: a block on the stack is free; `dealloc` wrote its link.
        *top = unsafe { *block.cast::<*mut u8>() };
        block
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.align() > ALIGN {
            // SAFETY: allocated by `System` with this layout (see `alloc`).
            return unsafe { System.dealloc(ptr, layout) };
        }
        if layout.size() <= SMALL_MAX {
            let region = (ptr as usize & !(REGION - 1)) as *mut Region;
            // SAFETY: small blocks lie in a region, whose header is at the
            // region-aligned address below them; this block is one of its
            // outstanding ones.
            return unsafe { release(region, 1) };
        }
        let (class, _) = large_class(layout.size());
        let mut top = LARGE[class].0.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the freed block is large enough for a link and ours alone.
        unsafe { *ptr.cast::<*mut u8>() = *top };
        *top = ptr;
    }
}
