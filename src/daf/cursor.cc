#include "daf/cursor.h"

#include <utility>

#include "daf/pipeline.h"

namespace daf {

EmbeddingCursor::EmbeddingCursor(const Graph& query, const Graph& data,
                                 const MatchOptions& options,
                                 MatchContext* context)
    : channel_(std::make_shared<Channel>()) {
  Start(query, nullptr, data, options, context);
}

EmbeddingCursor::EmbeddingCursor(std::shared_ptr<const PreparedQuery> prepared,
                                 const Graph& data,
                                 const MatchOptions& options,
                                 MatchContext* context)
    : channel_(std::make_shared<Channel>()) {
  const Graph& query = prepared->query;
  Start(query, std::move(prepared), data, options, context);
}

void EmbeddingCursor::Start(const Graph& query,
                            std::shared_ptr<const PreparedQuery> prepared,
                            const Graph& data, const MatchOptions& options,
                            MatchContext* context) {
  if (options.callback) {
    // The cursor owns the delivery channel; silently replacing the
    // caller's callback would drop every embedding it expected to see.
    result_.ok = false;
    result_.error = "EmbeddingCursor: options.callback must be unset";
    channel_->finished = true;
    joined_ = true;
    return;
  }
  std::shared_ptr<Channel> channel = channel_;
  MatchOptions producer_options = options;
  producer_options.callback = [channel](std::span<const VertexId> embedding) {
    std::unique_lock<std::mutex> lock(channel->mutex);
    channel->can_produce.wait(lock, [&] {
      return channel->closed || channel->buffer.size() < Channel::kCapacity;
    });
    if (channel->closed) return false;  // consumer abandoned the cursor
    channel->buffer.emplace_back(embedding.begin(), embedding.end());
    channel->can_consume.notify_one();
    return true;
  };
  // `query`, `data` and `context` follow the outlive-the-cursor contract
  // (like Backtracker's); a blob is captured by shared_ptr, which keeps a
  // cache-evicted entry alive for the whole stream.
  producer_ = std::thread([this, &query, prepared = std::move(prepared),
                           &data, producer_options, channel, context] {
    MatchResult result = internal::RunMatch(query, prepared.get(), data,
                                            producer_options, 1, context);
    {
      std::lock_guard<std::mutex> lock(channel->mutex);
      channel->finished = true;
      channel->can_consume.notify_all();
    }
    result_ = std::move(result);
  });
}

EmbeddingCursor::~EmbeddingCursor() {
  Close();
  if (producer_.joinable()) producer_.join();
}

std::optional<std::vector<VertexId>> EmbeddingCursor::Next() {
  std::unique_lock<std::mutex> lock(channel_->mutex);
  channel_->can_consume.wait(lock, [&] {
    return !channel_->buffer.empty() || channel_->finished ||
           channel_->closed;
  });
  if (!channel_->buffer.empty()) {
    std::vector<VertexId> embedding = std::move(channel_->buffer.front());
    channel_->buffer.pop_front();
    channel_->can_produce.notify_one();
    return embedding;
  }
  return std::nullopt;
}

void EmbeddingCursor::Close() {
  std::lock_guard<std::mutex> lock(channel_->mutex);
  channel_->closed = true;
  channel_->can_produce.notify_all();
  channel_->can_consume.notify_all();
}

const MatchResult& EmbeddingCursor::Finish() {
  if (!joined_) {
    {
      std::lock_guard<std::mutex> lock(channel_->mutex);
      // Calling Finish() before exhaustion stops the search early (the
      // result is then marked limit_reached via the callback protocol).
      if (!channel_->finished) channel_->closed = true;
      channel_->can_produce.notify_all();
    }
    if (producer_.joinable()) producer_.join();
    joined_ = true;
  }
  return result_;
}

}  // namespace daf
