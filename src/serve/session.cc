#include "serve/session.h"

#include <chrono>
#include <utility>

#include "parser/parser.h"

namespace mapinv {
namespace {

int64_t MonotonicMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Json SessionMetrics::ToJson() const {
  Json json = Json::MakeObject();
  json.Set("requests", Json(requests));
  json.Set("ok", Json(ok));
  json.Set("errors", Json(errors));
  json.Set("cancelled", Json(cancelled));
  json.Set("exhausted", Json(exhausted));
  json.Set("partial", Json(partial));
  json.Set("inverse_cache_hits", Json(inverse_cache_hits));
  json.Set("stats", StatsToJson(totals));
  return json;
}

Status Session::SetMapping(std::string_view spec) {
  MAPINV_ASSIGN_OR_RETURN(TgdMapping mapping, LoadMappingSpec(spec));
  auto shared = std::make_shared<const TgdMapping>(std::move(mapping));
  std::lock_guard<std::mutex> lock(mu_);
  mapping_ = std::move(shared);
  instances_.clear();
  maintained_.clear();
  inverses_.clear();
  return Status::OK();
}

Status Session::PutInstance(const std::string& name, std::string_view text) {
  if (name.empty()) {
    return Status::InvalidArgument("instance.put needs a non-empty \"name\"");
  }
  std::shared_ptr<const TgdMapping> mapping;
  {
    std::lock_guard<std::mutex> lock(mu_);
    mapping = mapping_;
  }
  if (mapping == nullptr) {
    return Status::InvalidArgument("session '" + name_ +
                                   "' has no mapping; session.open must "
                                   "supply one before instance.put");
  }
  MAPINV_ASSIGN_OR_RETURN(Instance instance,
                          ParseInstance(text, *mapping->source));
  auto shared = std::make_shared<const Instance>(instance.Snapshot());
  std::lock_guard<std::mutex> lock(mu_);
  instances_[name] = std::move(shared);
  // A put replaces the rows wholesale; any maintained solution over the old
  // rows is no longer an extension of them.
  maintained_.erase(name);
  return Status::OK();
}

Result<std::shared_ptr<MaintainedSolution>> Session::MaintainedFor(
    const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument(
        "maintained solutions need a non-empty instance name");
  }
  std::shared_ptr<const TgdMapping> mapping;
  std::shared_ptr<const Instance> seed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = maintained_.find(name);
    if (it != maintained_.end()) return it->second;
    mapping = mapping_;
    auto reg = instances_.find(name);
    if (reg == instances_.end()) {
      // Parity with exchange over an instance_ref: maintaining an instance
      // that was never put is a clean not-found, not a silent empty create.
      return Status::NotFound("session '" + name_ + "' has no instance '" +
                              name + "'");
    }
    seed = reg->second;
  }
  if (mapping == nullptr) {
    return Status::InvalidArgument("session '" + name_ +
                                   "' has no mapping; session.open must "
                                   "supply one before maintained solutions");
  }
  auto maintained = std::make_shared<MaintainedSolution>(std::move(mapping));
  if (seed != nullptr) {
    MAPINV_RETURN_NOT_OK(maintained->AppendInstance(*seed).status());
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Two racing creators: first insert wins, the loser's copy is dropped.
  return maintained_.emplace(name, std::move(maintained)).first->second;
}

Status Session::AppendInstance(const std::string& name, std::string_view text,
                               const ExecutionOptions& options,
                               std::string* rendered, size_t* appended) {
  MAPINV_ASSIGN_OR_RETURN(std::shared_ptr<MaintainedSolution> maintained,
                          MaintainedFor(name));
  MAPINV_ASSIGN_OR_RETURN(size_t added, maintained->AppendText(text));
  if (appended != nullptr) *appended = added;
  MAPINV_ASSIGN_OR_RETURN(std::string out,
                          maintained->RefreshAndRender(options));
  if (rendered != nullptr) *rendered = std::move(out);
  SyncRegisteredSource(name, maintained->SourceSnapshot());
  return Status::OK();
}

void Session::SyncRegisteredSource(const std::string& name, Instance source) {
  auto shared = std::make_shared<const Instance>(std::move(source));
  std::lock_guard<std::mutex> lock(mu_);
  instances_[name] = std::move(shared);
}

Status Session::SaveInstance(const std::string& name,
                             const std::string& path) const {
  if (path.empty()) {
    return Status::InvalidArgument("instance.save needs a non-empty \"path\"");
  }
  std::shared_ptr<const Instance> snapshot = instance(name);
  if (snapshot == nullptr) {
    return Status::NotFound("session '" + name_ + "' has no instance '" +
                            name + "'");
  }
  return snapshot->Save(path);
}

Status Session::LoadInstance(const std::string& name,
                             const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("instance.load needs a non-empty \"name\"");
  }
  if (path.empty()) {
    return Status::InvalidArgument("instance.load needs a non-empty \"path\"");
  }
  std::shared_ptr<const TgdMapping> mapping;
  {
    std::lock_guard<std::mutex> lock(mu_);
    mapping = mapping_;
  }
  if (mapping == nullptr) {
    return Status::InvalidArgument("session '" + name_ +
                                   "' has no mapping; session.open must "
                                   "supply one before instance.load");
  }
  MAPINV_ASSIGN_OR_RETURN(Instance loaded, Instance::Load(path));
  // Relation ids are positional in both the snapshot directory and the
  // mapping's compiled atoms, so the schemas must match id-for-id.
  const Schema& want = *mapping->source;
  const Schema& got = loaded.schema();
  bool match = got.size() == want.size();
  for (RelationId r = 0; match && r < want.size(); ++r) {
    match = got.name(r) == want.name(r) && got.arity(r) == want.arity(r);
  }
  if (!match) {
    return Status::InvalidArgument(
        "snapshot '" + path + "' does not match the source schema of "
        "session '" + name_ + "'");
  }
  auto shared = std::make_shared<const Instance>(std::move(loaded));
  std::lock_guard<std::mutex> lock(mu_);
  instances_[name] = std::move(shared);
  // Like instance.put: the rows were replaced wholesale, not appended.
  maintained_.erase(name);
  return Status::OK();
}

std::shared_ptr<const TgdMapping> Session::mapping() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mapping_;
}

std::shared_ptr<const Instance> Session::instance(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instances_.find(name);
  return it == instances_.end() ? nullptr : it->second;
}

std::vector<std::string> Session::InstanceNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(instances_.size());
  for (const auto& [name, _] : instances_) names.push_back(name);
  return names;
}

std::shared_ptr<const ReverseMapping> Session::CachedInverse(
    const std::string& command, std::string* result_text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inverses_.find(command);
  if (it == inverses_.end()) return nullptr;
  ++metrics_.inverse_cache_hits;
  if (result_text != nullptr) *result_text = it->second.result_text;
  return it->second.inverse;
}

void Session::CacheInverse(const std::string& command,
                           std::shared_ptr<const ReverseMapping> inverse,
                           std::string result_text) {
  std::lock_guard<std::mutex> lock(mu_);
  inverses_[command] = InverseEntry{std::move(inverse),
                                    std::move(result_text)};
}

void Session::RecordOutcome(const EngineResponse& response) {
  std::lock_guard<std::mutex> lock(mu_);
  ++metrics_.requests;
  if (response.status.ok()) {
    ++metrics_.ok;
  } else if (response.status.code() == StatusCode::kCancelled) {
    ++metrics_.cancelled;
    ++metrics_.errors;
  } else if (response.status.code() == StatusCode::kResourceExhausted) {
    ++metrics_.exhausted;
    ++metrics_.errors;
  } else {
    ++metrics_.errors;
  }
  if (response.partial) ++metrics_.partial;
  metrics_.totals.Merge(response.stats);
}

void Session::Touch() {
  last_active_ms_.store(MonotonicMs(), std::memory_order_relaxed);
}

int64_t Session::IdleMs() const {
  return MonotonicMs() - last_active_ms_.load(std::memory_order_relaxed);
}

SessionMetrics Session::MetricsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

Result<std::shared_ptr<Session>> SessionManager::Open(
    const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("session.open needs a non-empty name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.count(name) != 0) {
    return Status::InvalidArgument("session '" + name + "' already exists");
  }
  if (sessions_.size() >= max_sessions_) {
    return Status::ResourceExhausted(
        "session capacity reached (" + std::to_string(max_sessions_) + ")");
  }
  auto session = std::make_shared<Session>(name);
  sessions_[name] = session;
  return session;
}

Result<std::shared_ptr<Session>> SessionManager::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + name + "'");
  }
  it->second->Touch();
  return it->second;
}

size_t SessionManager::EvictIdle(int64_t ttl_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second->IdleMs() > ttl_ms) {
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

Status SessionManager::Close(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.erase(name) == 0) {
    return Status::NotFound("no session '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> SessionManager::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(sessions_.size());
  for (const auto& [name, _] : sessions_) names.push_back(name);
  return names;
}

Json SessionManager::MetricsJson() const {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.reserve(sessions_.size());
    for (const auto& [_, session] : sessions_) sessions.push_back(session);
  }
  Json json = Json::MakeObject();
  for (const auto& session : sessions) {
    json.Set(session->name(), session->MetricsSnapshot().ToJson());
  }
  return json;
}

}  // namespace mapinv
