/* heap_sites -- LD_PRELOAD allocation tracker: which call stacks hold the
 * live heap at its peak.
 *
 *   LD_PRELOAD=libheap_sites.so HEAP_SITES_OUT=sites.txt <program> [args]
 *   python3 tools/heap_sites/heap_sites.py sites.txt
 *
 * Every malloc, calloc, realloc, memalign, posix_memalign and aligned_alloc
 * is charged to its call stack (glibc backtrace, up to 16 frames). Bytes
 * are the requested sizes, without allocator overhead. The live bytes of
 * every stack are snapshotted each time the live total passes the last
 * snapshot by 16 KiB, so the snapshot is the heap within 16 KiB of its
 * peak; the peak itself is exact. At exit the
 * library writes the peak and the snapshot's stacks, as module offsets, to
 * HEAP_SITES_OUT (default heap_sites.txt); heap_sites.py symbolizes and
 * groups them.
 *
 * The tables live in anonymous mappings sized once at start-up, so the
 * tracker never allocates through the heap it measures. Allocations made
 * while the tracker itself runs (backtrace's first call loads libgcc) pass
 * through uncounted, as do frees of pointers it never saw. A table kept
 * under three quarters full never probes forever: past that, allocations
 * go uncounted and the report says how many.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t n, size_t size);
extern void* __libc_realloc(void* ptr, size_t size);
extern void* __libc_memalign(size_t align, size_t size);
extern void __libc_free(void* ptr);

enum {
  kFrames = 16,
  kStackSlots = 1 << 14, /* distinct call stacks (power of two) */
  kBlockSlots = 1 << 20, /* live blocks (power of two) */
  kModules = 256,
  kStep = 16384, /* snapshot granularity in bytes */
};

typedef struct {
  uintptr_t frames[kFrames];
  int depth; /* 0 = empty slot */
  int64_t live;
  int64_t snapshot;
  int64_t blocks;
  int64_t snapshot_blocks;
} Stack;

typedef struct {
  uintptr_t ptr; /* 0 = empty slot */
  uint32_t stack;
  uint64_t size;
} Block;

static Stack* g_stacks;
static Block* g_blocks;
static int64_t g_live, g_peak, g_snapshot_live;
static int64_t g_untracked;
static int64_t g_stack_count, g_block_count, g_overflows;
static int g_ready;
static atomic_flag g_lock = ATOMIC_FLAG_INIT;
static __thread int t_busy __attribute__((tls_model("initial-exec")));

static void lock(void) {
  while (atomic_flag_test_and_set_explicit(&g_lock, memory_order_acquire)) {
  }
}
static void unlock(void) {
  atomic_flag_clear_explicit(&g_lock, memory_order_release);
}

static uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/* Returns kStackSlots when the table is full. */
static uint32_t stack_id(uintptr_t* frames, int depth) {
  uint64_t h = (uint64_t)depth;
  for (int i = 0; i < depth; ++i) h = mix(h ^ frames[i]);
  for (uint32_t i = (uint32_t)h & (kStackSlots - 1);;
       i = (i + 1) & (kStackSlots - 1)) {
    Stack* s = &g_stacks[i];
    if (s->depth == 0) {
      if (4 * (g_stack_count + 1) > 3 * kStackSlots) return kStackSlots;
      ++g_stack_count;
      memcpy(s->frames, frames, sizeof(uintptr_t) * (size_t)depth);
      s->depth = depth;
      return i;
    }
    if (s->depth == depth &&
        memcmp(s->frames, frames, sizeof(uintptr_t) * (size_t)depth) == 0) {
      return i;
    }
  }
}

static void snapshot(void) {
  for (uint32_t i = 0; i < kStackSlots; ++i) {
    g_stacks[i].snapshot = g_stacks[i].live;
    g_stacks[i].snapshot_blocks = g_stacks[i].blocks;
  }
  g_snapshot_live = g_live;
}

/* Linear probing with backward-shift deletion: no tombstones. */
static void insert_block(uintptr_t ptr, uint32_t stack, uint64_t size) {
  for (uint32_t i = (uint32_t)mix(ptr) & (kBlockSlots - 1);;
       i = (i + 1) & (kBlockSlots - 1)) {
    if (g_blocks[i].ptr == 0) {
      g_blocks[i].ptr = ptr;
      g_blocks[i].stack = stack;
      g_blocks[i].size = size;
      return;
    }
  }
}

static int remove_block(uintptr_t ptr, Block* out) {
  uint32_t i = (uint32_t)mix(ptr) & (kBlockSlots - 1);
  while (g_blocks[i].ptr != ptr) {
    if (g_blocks[i].ptr == 0) return 0;
    i = (i + 1) & (kBlockSlots - 1);
  }
  *out = g_blocks[i];
  for (uint32_t j = (i + 1) & (kBlockSlots - 1); g_blocks[j].ptr != 0;
       j = (j + 1) & (kBlockSlots - 1)) {
    const uint32_t home = (uint32_t)mix(g_blocks[j].ptr) & (kBlockSlots - 1);
    /* Move j back into the hole at i unless its home lies in (i, j]. */
    if (((j - home) & (kBlockSlots - 1)) >= ((j - i) & (kBlockSlots - 1))) {
      g_blocks[i] = g_blocks[j];
      i = j;
    }
  }
  g_blocks[i].ptr = 0;
  return 1;
}

static void record_alloc(void* p, size_t size) {
  if (p == NULL || !g_ready || t_busy) return;
  t_busy = 1;
  uintptr_t frames[kFrames + 1];
  /* Frame 0 is this function; the caller's frames follow. */
  const int depth = backtrace((void**)frames, kFrames + 1) - 1;
  lock();
  const uint32_t id = stack_id(frames + 1, depth > 0 ? depth : 0);
  if (id == kStackSlots || 4 * (g_block_count + 1) > 3 * kBlockSlots) {
    ++g_overflows;
    unlock();
    t_busy = 0;
    return;
  }
  ++g_block_count;
  insert_block((uintptr_t)p, id, size);
  g_stacks[id].live += (int64_t)size;
  g_stacks[id].blocks += 1;
  g_live += (int64_t)size;
  if (g_live > g_peak) g_peak = g_live;
  if (g_live >= g_snapshot_live + kStep) snapshot();
  unlock();
  t_busy = 0;
}

static void record_free(void* p) {
  if (p == NULL || !g_ready) return;
  Block b;
  lock();
  if (remove_block((uintptr_t)p, &b)) {
    g_stacks[b.stack].live -= (int64_t)b.size;
    g_stacks[b.stack].blocks -= 1;
    g_live -= (int64_t)b.size;
    --g_block_count;
  } else {
    ++g_untracked;
  }
  unlock();
}

void* malloc(size_t size) {
  void* p = __libc_malloc(size);
  record_alloc(p, size);
  return p;
}

void* calloc(size_t n, size_t size) {
  void* p = __libc_calloc(n, size);
  record_alloc(p, n * size);
  return p;
}

void* realloc(void* ptr, size_t size) {
  record_free(ptr);
  void* p = __libc_realloc(ptr, size);
  record_alloc(p, size);
  return p;
}

void free(void* ptr) {
  record_free(ptr);
  __libc_free(ptr);
}

void* memalign(size_t align, size_t size) {
  void* p = __libc_memalign(align, size);
  record_alloc(p, size);
  return p;
}

void* aligned_alloc(size_t align, size_t size) {
  return memalign(align, size);
}

int posix_memalign(void** out, size_t align, size_t size) {
  if (align < sizeof(void*) || (align & (align - 1)) != 0) return EINVAL;
  void* p = memalign(align, size);
  if (p == NULL) return ENOMEM;
  *out = p;
  return 0;
}

static void* map(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

__attribute__((constructor)) static void heap_sites_start(void) {
  g_stacks = map(sizeof(Stack) * kStackSlots);
  g_blocks = map(sizeof(Block) * kBlockSlots);
  if (g_stacks == NULL || g_blocks == NULL) return;
  t_busy = 1;
  void* warm[1];
  backtrace(warm, 1); /* loads libgcc outside any tracked call */
  t_busy = 0;
  g_ready = 1;
}

/* --- report ------------------------------------------------------------ */

typedef struct {
  uintptr_t base;
  const char* path;
} Module;

static Module g_modules[kModules];
static int g_module_count;

static int module_of(uintptr_t addr, uintptr_t* offset) {
  Dl_info info;
  if (dladdr((void*)addr, &info) == 0 || info.dli_fname == NULL) {
    *offset = addr;
    return -1;
  }
  const uintptr_t base = (uintptr_t)info.dli_fbase;
  *offset = addr - base;
  for (int i = 0; i < g_module_count; ++i) {
    if (g_modules[i].base == base) return i;
  }
  if (g_module_count == kModules) return -1;
  g_modules[g_module_count].base = base;
  g_modules[g_module_count].path = info.dli_fname;
  return g_module_count++;
}

static void emit(int fd, const char* text) {
  size_t left = strlen(text);
  while (left > 0) {
    const ssize_t n = write(fd, text, left);
    if (n <= 0) return;
    text += n;
    left -= (size_t)n;
  }
}

__attribute__((destructor)) static void heap_sites_report(void) {
  if (!g_ready) return;
  /* From here on the hooks pass straight through: nothing below is
   * counted, and a free inside dladdr or snprintf cannot wait on the lock
   * held here. */
  lock();
  g_ready = 0;
  const char* path = getenv("HEAP_SITES_OUT");
  const int fd = open(path != NULL ? path : "heap_sites.txt",
                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    unlock();
    return;
  }
  char line[512];
  snprintf(line, sizeof line,
           "heap_sites 1\npeak_live_bytes %lld\nsnapshot_live_bytes %lld\n"
           "snapshot_step_bytes %lld\nuntracked_frees %lld\n"
           "uncounted_allocs %lld\n",
           (long long)g_peak, (long long)g_snapshot_live, (long long)kStep,
           (long long)g_untracked, (long long)g_overflows);
  emit(fd, line);
  /* One line per stack live at the snapshot:
   *   stack <bytes> <blocks> <module>:<offset> ...
   * where -1 is an address no module claims. Module lines follow. */
  for (uint32_t i = 0; i < kStackSlots; ++i) {
    const Stack* s = &g_stacks[i];
    if (s->depth == 0 || s->snapshot <= 0) continue;
    snprintf(line, sizeof line, "stack %lld %lld", (long long)s->snapshot,
             (long long)s->snapshot_blocks);
    emit(fd, line);
    for (int f = 0; f < s->depth; ++f) {
      uintptr_t offset;
      const int module = module_of(s->frames[f], &offset);
      snprintf(line, sizeof line, " %d:%llx", module,
               (unsigned long long)offset);
      emit(fd, line);
    }
    emit(fd, "\n");
  }
  for (int m = 0; m < g_module_count; ++m) {
    snprintf(line, sizeof line, "module %d %llx ", m,
             (unsigned long long)g_modules[m].base);
    emit(fd, line);
    /* dladdr names the main program by argv[0], which may be relative. */
    const char* name = g_modules[m].path;
    char exe[4096];
    if (name[0] != '/') {
      const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
      if (n > 0) {
        exe[n] = '\0';
        name = exe;
      }
    }
    emit(fd, name);
    emit(fd, "\n");
  }
  close(fd);
  unlock();
}
