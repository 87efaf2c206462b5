/**
 * @file
 * ShardPool: the board's set-shard worker pool.
 *
 * MemoriesBoard::feedBatch partitions retired tenures by a slice of
 * their line address that is contained in every node's set-index
 * window, so any two tenures that could ever touch the same directory
 * set land in the same shard. Each shard's work is then embarrassingly
 * parallel: one persistent worker per shard walks its bucket, touching
 * only its own sets and its own counter replicas (docs/SHARDING.md).
 *
 * The pool is a plain fork-join barrier: runAll(fn) wakes every worker
 * to run fn(shard) once and blocks until the last one finishes.
 * Credit pacing, health/fault hooks and the transaction buffer never
 * run here — they stay on the coordinating thread (PR 4 semantics).
 *
 * With one shard there are no threads at all: runAll executes inline
 * on the caller, so the serial and sharded code paths are the same
 * code, and a single-shard "pool" is bit-exact by construction.
 */

#ifndef MEMORIES_IES_SHARDPOOL_HH
#define MEMORIES_IES_SHARDPOOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace memories::ies
{

/** Persistent fork-join worker pool, one worker per shard. */
class ShardPool
{
  public:
    /**
     * @param shards Number of shards; 0 and 1 both mean "inline, no
     *        threads". Workers (shards > 1) start immediately and
     *        park on a condition variable between batches.
     */
    explicit ShardPool(std::size_t shards);
    ~ShardPool();

    ShardPool(const ShardPool &) = delete;
    ShardPool &operator=(const ShardPool &) = delete;

    std::size_t shards() const { return shards_; }

    /**
     * Run fn(shard) for every shard in [0, shards) and wait for all of
     * them. Calls fn(0) inline when the pool is threadless. @p fn must
     * not call back into the pool.
     */
    void runAll(const std::function<void(std::size_t)> &fn);

  private:
    void workerMain(std::size_t shard);

    std::size_t shards_;
    std::vector<std::thread> threads_;

    std::mutex mu_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::uint64_t epoch_ = 0;    //!< bumped per runAll to wake workers
    std::size_t outstanding_ = 0; //!< workers still in the current job
    bool stop_ = false;
};

} // namespace memories::ies

#endif // MEMORIES_IES_SHARDPOOL_HH
