#include "fleet/statedb.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/check.hpp"
#include "snap/format.hpp"

namespace vapres::fleet {

namespace {

using snap::fold_str;
using snap::fold_u64;
using snap::kFnvOffset;
using snap::put_u64;

constexpr char kUnit = '\x1F';  ///< field separator in request blobs

}  // namespace

AgentId fabric_agent_id(int fabric) {
  return static_cast<AgentId>(static_cast<int>(AgentId::kFabric0) + fabric);
}

std::string agent_label(AgentId a) {
  switch (a) {
    case AgentId::kOrchestrator: return "orchestrator";
    case AgentId::kRouter: return "router";
    case AgentId::kQuota: return "quota";
    case AgentId::kMigration: return "migration";
    case AgentId::kHealth: return "health";
    default:
      return "fabric" + std::to_string(static_cast<int>(a) -
                                       static_cast<int>(AgentId::kFabric0));
  }
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kSubmitIntent: return "submit_intent";
    case Op::kQuotaDecision: return "quota_decision";
    case Op::kTenantState: return "tenant_state";
    case Op::kRouteOrder: return "route_order";
    case Op::kAdmitResult: return "admit_result";
    case Op::kRouteResult: return "route_result";
    case Op::kAppLocation: return "app_location";
    case Op::kAppRemoved: return "app_removed";
    case Op::kRouterCursor: return "router_cursor";
    case Op::kMigrateIntent: return "migrate_intent";
    case Op::kMigrateStep: return "migrate_step";
    case Op::kFabricState: return "fabric_state";
    case Op::kPreemption: return "preemption";
    case Op::kAgentRestart: return "agent_restart";
    case Op::kFabricCheckpoint: return "fabric_checkpoint";
    case Op::kFailover: return "failover";
    case Op::kHealthTick: return "health_tick";
    case Op::kHealthRuleState: return "health_rule_state";
    case Op::kIsolateFabric: return "isolate_fabric";
  }
  return "?";
}

const char* mig_step_name(MigStep s) {
  switch (s) {
    case MigStep::kNone: return "none";
    case MigStep::kPlanned: return "planned";
    case MigStep::kMastersAdopted: return "masters_adopted";
    case MigStep::kSourceStopped: return "source_stopped";
    case MigStep::kDstAdmitted: return "dst_admitted";
    case MigStep::kDstRejected: return "dst_rejected";
    case MigStep::kMoved: return "moved";
    case MigStep::kRolledBack: return "rolled_back";
    case MigStep::kSkipped: return "skipped";
    case MigStep::kLost: return "lost";
  }
  return "?";
}

std::string JournalEntry::to_bytes() const {
  std::string out;
  out.reserve(8 + 2 + 8 + 4 * 8 + 8 + note.size());
  put_u64(out, version);
  out.push_back(static_cast<char>(agent));
  out.push_back(static_cast<char>(op));
  put_u64(out, static_cast<std::uint64_t>(key));
  for (const std::int64_t a : args) {
    put_u64(out, static_cast<std::uint64_t>(a));
  }
  put_u64(out, note.size());
  out += note;
  return out;
}

std::string serialize_request(const sched::AppRequest& r) {
  std::string mods;
  for (std::size_t i = 0; i < r.modules.size(); ++i) {
    if (i > 0) mods.push_back(',');
    mods += r.modules[i];
  }
  std::string out = r.name;
  out.push_back(kUnit);
  out += mods;
  out.push_back(kUnit);
  out += std::to_string(r.priority);
  out.push_back(kUnit);
  out += std::to_string(r.source_interval_cycles);
  out.push_back(kUnit);
  out += std::to_string(r.source_words);
  return out;
}

sched::AppRequest parse_request(const std::string& blob) {
  std::vector<std::string> fields;
  std::string cur;
  for (const char c : blob) {
    if (c == kUnit) {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(cur);
  VAPRES_REQUIRE(fields.size() == 5, "malformed request blob in journal");
  sched::AppRequest r;
  r.name = fields[0];
  std::string mod;
  for (const char c : fields[1]) {
    if (c == ',') {
      r.modules.push_back(mod);
      mod.clear();
    } else {
      mod.push_back(c);
    }
  }
  if (!mod.empty()) r.modules.push_back(mod);
  r.priority = std::stoi(fields[2]);
  r.source_interval_cycles = std::stoi(fields[3]);
  r.source_words = std::stoull(fields[4]);
  return r;
}

StateDb::StateDb(int num_fabrics) : journal_digest_(kFnvOffset) {
  VAPRES_REQUIRE(num_fabrics > 0, "state table needs at least one fabric");
  view_.fabrics.resize(static_cast<std::size_t>(num_fabrics));
  view_.fabric_health.resize(static_cast<std::size_t>(num_fabrics));
  base_ = view_;
}

const JournalEntry& StateDb::append(AgentId agent, Op op, std::int64_t key,
                                    std::array<std::int64_t, 4> args,
                                    std::string note) {
  JournalEntry e;
  e.version = ++version_;
  e.agent = agent;
  e.op = op;
  e.key = key;
  e.args = args;
  e.note = std::move(note);
  const std::string bytes = e.to_bytes();
  journal_digest_ = snap::fnv1a(bytes.data(), bytes.size(), journal_digest_);
  journal_.push_back(std::move(e));
  apply(view_, journal_.back());
  if (journal_.back().op == Op::kAgentRestart) {
    ++restarts_[static_cast<AgentId>(journal_.back().key)];
  }
  return journal_.back();
}

void StateDb::apply(View& v, const JournalEntry& e) {
  const auto ai = [&](int i) { return static_cast<int>(e.args[static_cast<
      std::size_t>(i)]); };
  switch (e.op) {
    case Op::kSubmitIntent: {
      const std::size_t sep = e.note.find('\x1E');
      VAPRES_REQUIRE(sep != std::string::npos, "malformed submit intent");
      const std::string tenant = e.note.substr(0, sep);
      IntentRow row;
      row.seq = e.key;
      auto it = v.tenant_ids.find(tenant);
      if (it == v.tenant_ids.end()) {
        const int id = static_cast<int>(v.tenants.size());
        v.tenant_ids[tenant] = id;
        TenantRow t;
        t.name = tenant;
        v.tenants.push_back(t);
        it = v.tenant_ids.find(tenant);
      }
      row.tenant = it->second;
      row.request_blob = e.note.substr(sep + 1);
      v.intent = std::move(row);
      break;
    }
    case Op::kQuotaDecision:
      if (v.intent && v.intent->seq == e.key) {
        v.intent->quota_decided = true;
        v.intent->quota_allowed = e.args[0] != 0;
      }
      break;
    case Op::kTenantState: {
      // Tenant rows may be created by quota publication before any
      // submit intent names them (restores, preemption bookkeeping).
      auto it = v.tenant_ids.find(e.note);
      int id = static_cast<int>(e.key);
      if (!e.note.empty() && it == v.tenant_ids.end()) {
        VAPRES_REQUIRE(id == static_cast<int>(v.tenants.size()),
                       "tenant ids must be dense");
        v.tenant_ids[e.note] = id;
        TenantRow t;
        t.name = e.note;
        v.tenants.push_back(t);
      }
      VAPRES_REQUIRE(id >= 0 && id < static_cast<int>(v.tenants.size()),
                     "tenant state for unknown tenant id");
      TenantRow& t = v.tenants[static_cast<std::size_t>(id)];
      t.budget = ai(0);
      t.usage = ai(1);
      t.pressure = ai(2);
      t.idle = ai(3);
      break;
    }
    case Op::kRouteOrder:
      if (v.intent) {
        v.intent->round = ai(0);
        v.intent->planned = true;
        v.intent->order.clear();
        std::string num;
        for (const char c : e.note) {
          if (c == ',') {
            v.intent->order.push_back(std::stoi(num));
            num.clear();
          } else {
            num.push_back(c);
          }
        }
        if (!num.empty()) v.intent->order.push_back(std::stoi(num));
        v.intent->next_try = 0;
      }
      break;
    case Op::kAdmitResult:
      if (v.intent && v.intent->seq == e.key) {
        ++v.intent->attempts;
        ++v.intent->next_try;
        v.intent->last_verdict = ai(2);
      }
      break;
    case Op::kRouteResult:
      v.intent.reset();
      break;
    case Op::kAppLocation: {
      AppRow row;
      row.fabric = ai(0);
      row.local = ai(1);
      row.tenant = ai(2);
      v.apps[static_cast<int>(e.key)] = row;
      if (static_cast<int>(e.key) >= v.next_fleet_id) {
        v.next_fleet_id = static_cast<int>(e.key) + 1;
      }
      break;
    }
    case Op::kAppRemoved:
      v.apps.erase(static_cast<int>(e.key));
      break;
    case Op::kRouterCursor:
      v.rr_cursor = ai(0);
      break;
    case Op::kMigrateIntent: {
      MigrationRow row;
      row.fleet_id = static_cast<int>(e.key);
      row.dst = ai(0);
      row.probe_first = e.args[1] != 0;
      row.step = MigStep::kNone;
      v.migration = row;
      // A health-authored intent is a drain: stamp the source fabric so
      // the HealthAgent caps drains at one per fabric per tick.
      if (e.agent == AgentId::kHealth) {
        const auto it = v.apps.find(static_cast<int>(e.key));
        if (it != v.apps.end() && it->second.fabric >= 0 &&
            it->second.fabric <
                static_cast<int>(v.fabric_health.size())) {
          v.fabric_health[static_cast<std::size_t>(it->second.fabric)]
              .last_drain_version = e.version;
        }
      }
      break;
    }
    case Op::kMigrateStep:
      if (v.migration && v.migration->fleet_id == static_cast<int>(e.key)) {
        const MigStep step = static_cast<MigStep>(e.args[0]);
        v.migration->step = step;
        switch (step) {
          case MigStep::kPlanned:
            v.migration->src = ai(1);
            v.migration->src_local = ai(2);
            break;
          case MigStep::kDstAdmitted:
            v.migration->dst_local = ai(1);
            break;
          case MigStep::kMoved:
          case MigStep::kRolledBack:
          case MigStep::kSkipped:
          case MigStep::kLost:
            v.migration.reset();
            break;
          default:
            break;
        }
      }
      break;
    case Op::kFabricState: {
      const int f = static_cast<int>(e.key);
      VAPRES_REQUIRE(f >= 0 && f < static_cast<int>(v.fabrics.size()),
                     "fabric state for unknown fabric");
      FabricRow& row = v.fabrics[static_cast<std::size_t>(f)];
      row.free_prrs = ai(0);
      row.queued = ai(1);
      row.running = ai(2);
      row.util_permille = ai(3);
      row.version = e.version;
      break;
    }
    case Op::kPreemption:
      // The victim's app row stays (terminal until retirement); the open
      // intent — if any — gets a fresh post-preemption routing round.
      if (v.intent) {
        v.intent->preempted_for = true;
        v.intent->round += 1;
        v.intent->planned = false;
        v.intent->order.clear();
        v.intent->next_try = 0;
      }
      break;
    case Op::kHealthTick:
      v.health_tick_cycle = static_cast<std::uint64_t>(e.args[0]);
      v.health_tick_version = e.version;
      break;
    case Op::kHealthRuleState: {
      const int id = static_cast<int>(e.key);
      VAPRES_REQUIRE(id >= 0 && id < 4096, "health rule id out of range");
      if (id >= static_cast<int>(v.health.size())) {
        v.health.resize(static_cast<std::size_t>(id) + 1);
      }
      HealthRuleRow& row = v.health[static_cast<std::size_t>(id)];
      if (!e.note.empty()) row.name = e.note;
      const auto packed = static_cast<std::uint64_t>(e.args[0]);
      row.bad_streak = static_cast<int>(packed & 0xfffffu);
      row.good_streak = static_cast<int>((packed >> 20) & 0xfffffu);
      row.breached = (packed & (1ull << 40)) != 0;
      row.primed = (packed & (1ull << 43)) != 0;
      row.fabric = static_cast<int>((packed >> 48) & 0xffffu) - 1;
      row.last_raw = e.args[1];
      row.last_eval_version = static_cast<std::uint64_t>(e.args[2]);
      row.breaches = static_cast<std::uint64_t>(e.args[3]);
      const bool tripped = (packed & (1ull << 41)) != 0;
      if (tripped && row.fabric >= 0 &&
          row.fabric < static_cast<int>(v.fabric_health.size())) {
        FabricHealthRow& fh =
            v.fabric_health[static_cast<std::size_t>(row.fabric)];
        fh.last_breach_version = e.version;
        fh.last_breach_cycle = v.health_tick_cycle;
      }
      break;
    }
    case Op::kIsolateFabric: {
      const int f = static_cast<int>(e.key);
      VAPRES_REQUIRE(f >= 0 && f < static_cast<int>(v.fabric_health.size()),
                     "isolation for unknown fabric");
      FabricHealthRow& fh = v.fabric_health[static_cast<std::size_t>(f)];
      const bool on = e.args[0] != 0;
      if (on && !fh.isolated) ++fh.isolations;
      fh.isolated = on;
      break;
    }
    case Op::kAgentRestart:
    case Op::kFabricCheckpoint:
    case Op::kFailover:
      // Audit-only entries; the view moves via the kAppLocation /
      // kAppRemoved rows a failover writes per app.
      break;
  }
}

std::string StateDb::serialize_journal() const {
  std::string out;
  for (const JournalEntry& e : journal_) out += e.to_bytes();
  return out;
}

std::uint64_t StateDb::digest_view(const View& v) {
  std::uint64_t h = kFnvOffset;
  fold_u64(h, static_cast<std::uint64_t>(v.next_fleet_id));
  fold_u64(h, static_cast<std::uint64_t>(v.rr_cursor));
  fold_u64(h, v.apps.size());
  for (const auto& [id, row] : v.apps) {
    fold_u64(h, static_cast<std::uint64_t>(id));
    fold_u64(h, static_cast<std::uint64_t>(row.fabric));
    fold_u64(h, static_cast<std::uint64_t>(row.local));
    fold_u64(h, static_cast<std::uint64_t>(row.tenant));
  }
  fold_u64(h, v.tenants.size());
  for (const TenantRow& t : v.tenants) {
    fold_str(h, t.name);
    fold_u64(h, static_cast<std::uint64_t>(t.budget));
    fold_u64(h, static_cast<std::uint64_t>(t.usage));
    fold_u64(h, static_cast<std::uint64_t>(t.pressure));
    fold_u64(h, static_cast<std::uint64_t>(t.idle));
  }
  fold_u64(h, v.fabrics.size());
  for (const FabricRow& f : v.fabrics) {
    fold_u64(h, static_cast<std::uint64_t>(f.free_prrs));
    fold_u64(h, static_cast<std::uint64_t>(f.queued));
    fold_u64(h, static_cast<std::uint64_t>(f.running));
    fold_u64(h, static_cast<std::uint64_t>(f.util_permille));
  }
  fold_u64(h, v.intent ? 1u : 0u);
  if (v.intent) {
    fold_u64(h, static_cast<std::uint64_t>(v.intent->seq));
    fold_u64(h, static_cast<std::uint64_t>(v.intent->tenant));
    fold_str(h, v.intent->request_blob);
    fold_u64(h, static_cast<std::uint64_t>(v.intent->round));
    fold_u64(h, v.intent->planned ? 1u : 0u);
    fold_u64(h, static_cast<std::uint64_t>(v.intent->next_try));
    fold_u64(h, static_cast<std::uint64_t>(v.intent->attempts));
    fold_u64(h, v.intent->preempted_for ? 1u : 0u);
  }
  fold_u64(h, v.migration ? 1u : 0u);
  if (v.migration) {
    fold_u64(h, static_cast<std::uint64_t>(v.migration->fleet_id));
    fold_u64(h, static_cast<std::uint64_t>(v.migration->step));
    fold_u64(h, static_cast<std::uint64_t>(v.migration->src));
    fold_u64(h, static_cast<std::uint64_t>(v.migration->dst));
  }
  fold_u64(h, v.health_tick_cycle);
  fold_u64(h, v.health_tick_version);
  fold_u64(h, v.health.size());
  for (const HealthRuleRow& r : v.health) {
    fold_str(h, r.name);
    fold_u64(h, static_cast<std::uint64_t>(r.fabric));
    fold_u64(h, static_cast<std::uint64_t>(r.bad_streak));
    fold_u64(h, static_cast<std::uint64_t>(r.good_streak));
    fold_u64(h, r.breached ? 1u : 0u);
    fold_u64(h, r.primed ? 1u : 0u);
    fold_u64(h, static_cast<std::uint64_t>(r.last_raw));
    fold_u64(h, r.last_eval_version);
    fold_u64(h, r.breaches);
  }
  fold_u64(h, v.fabric_health.size());
  for (const FabricHealthRow& fh : v.fabric_health) {
    fold_u64(h, fh.isolated ? 1u : 0u);
    fold_u64(h, fh.isolations);
    fold_u64(h, fh.last_breach_version);
    fold_u64(h, fh.last_breach_cycle);
    fold_u64(h, fh.last_drain_version);
  }
  return h;
}

std::uint64_t StateDb::view_digest() const { return digest_view(view_); }

void StateDb::truncate() {
  base_ = view_;
  journal_.clear();
}

std::uint64_t StateDb::replayed_view_digest() const {
  View v = base_;
  for (const JournalEntry& e : journal_) apply(v, e);
  return digest_view(v);
}

const AppRow* StateDb::app(int fleet_id) const {
  const auto it = view_.apps.find(fleet_id);
  return it != view_.apps.end() ? &it->second : nullptr;
}

int StateDb::tenant_id(const std::string& name) const {
  const auto it = view_.tenant_ids.find(name);
  return it != view_.tenant_ids.end() ? it->second : -1;
}

const TenantRow& StateDb::tenant(int id) const {
  VAPRES_REQUIRE(id >= 0 && id < num_tenants(), "tenant id out of range");
  return view_.tenants[static_cast<std::size_t>(id)];
}

const FabricRow& StateDb::fabric(int index) const {
  VAPRES_REQUIRE(index >= 0 && index < num_fabrics(),
                 "fabric index out of range");
  return view_.fabrics[static_cast<std::size_t>(index)];
}

const IntentRow* StateDb::open_intent() const {
  return view_.intent ? &*view_.intent : nullptr;
}

const MigrationRow* StateDb::inflight_migration() const {
  return view_.migration ? &*view_.migration : nullptr;
}

const FabricHealthRow& StateDb::fabric_health(int index) const {
  VAPRES_REQUIRE(index >= 0 && index < num_fabrics(),
                 "fabric index out of range");
  return view_.fabric_health[static_cast<std::size_t>(index)];
}

bool StateDb::isolated(int fabric) const {
  return fabric_health(fabric).isolated;
}

int StateDb::available_fabrics() const {
  int n = 0;
  for (const FabricHealthRow& fh : view_.fabric_health) {
    if (!fh.isolated) ++n;
  }
  return n;
}

int StateDb::active_breaches(int fabric) const {
  int n = 0;
  for (const HealthRuleRow& r : view_.health) {
    if (r.breached && r.fabric == fabric) ++n;
  }
  return n;
}

std::uint64_t StateDb::restarts(AgentId a) const {
  const auto it = restarts_.find(a);
  return it != restarts_.end() ? it->second : 0;
}

std::string StateDb::to_string(
    const std::vector<std::string>* fabric_names) const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "state table: journal v%llu (depth %zu, digest %016llx, "
                "view %016llx)\n",
                static_cast<unsigned long long>(version_), journal_.size(),
                static_cast<unsigned long long>(journal_digest_),
                static_cast<unsigned long long>(view_digest()));
  out += buf;
  int running_rows = static_cast<int>(view_.apps.size());
  std::snprintf(buf, sizeof(buf),
                "  apps: %d located, next fleet id %d, rr cursor %d\n",
                running_rows, view_.next_fleet_id, view_.rr_cursor);
  out += buf;
  for (const TenantRow& t : view_.tenants) {
    std::snprintf(buf, sizeof(buf),
                  "  tenant %-8s budget %2d usage %2d streaks +%d/-%d\n",
                  t.name.c_str(), t.budget, t.usage, t.pressure, t.idle);
    out += buf;
  }
  for (std::size_t i = 0; i < view_.fabrics.size(); ++i) {
    const FabricRow& f = view_.fabrics[i];
    const std::string label =
        fabric_names != nullptr && i < fabric_names->size()
            ? (*fabric_names)[i]
            : std::to_string(i);
    std::snprintf(buf, sizeof(buf),
                  "  fabric %s: free %d PRRs, queued %d, running %d, "
                  "util %.1f%% (published @v%llu)\n",
                  label.c_str(), f.free_prrs, f.queued, f.running,
                  static_cast<double>(f.util_permille) / 10.0,
                  static_cast<unsigned long long>(f.version));
    out += buf;
  }
  if (view_.migration) {
    std::snprintf(buf, sizeof(buf),
                  "  in-flight migration: fleet id %d %d->%d at step %s\n",
                  view_.migration->fleet_id, view_.migration->src,
                  view_.migration->dst, mig_step_name(view_.migration->step));
    out += buf;
  }
  if (!view_.health.empty()) {
    for (std::size_t i = 0; i < view_.fabric_health.size(); ++i) {
      const FabricHealthRow& fh = view_.fabric_health[i];
      const int breaches = active_breaches(static_cast<int>(i));
      const int score =
          std::max(0, 1000 - 250 * breaches - (fh.isolated ? 100 : 0));
      const std::string label =
          fabric_names != nullptr && i < fabric_names->size()
              ? (*fabric_names)[i]
              : std::to_string(i);
      std::snprintf(buf, sizeof(buf),
                    "  health %s: score %4d, %s, %d active breach(es), "
                    "last breach @v%llu, %llu isolation(s)\n",
                    label.c_str(), score,
                    fh.isolated ? "ISOLATED" : "serving", breaches,
                    static_cast<unsigned long long>(fh.last_breach_version),
                    static_cast<unsigned long long>(fh.isolations));
      out += buf;
    }
    for (std::size_t i = 0; i < view_.health.size(); ++i) {
      const HealthRuleRow& r = view_.health[i];
      if (!r.breached) continue;
      std::snprintf(buf, sizeof(buf),
                    "    breached rule %zu (%s): streaks +%d/-%d, "
                    "%llu trip(s), last eval @v%llu\n",
                    i, r.name.c_str(), r.bad_streak, r.good_streak,
                    static_cast<unsigned long long>(r.breaches),
                    static_cast<unsigned long long>(r.last_eval_version));
      out += buf;
    }
  }
  return out;
}

}  // namespace vapres::fleet
