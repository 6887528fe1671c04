// qmcbench: one benchmark chain of the qmcxx engine, printed as JSON.
//
//   qmcbench --spec specs/nio32.json --mode dmc --precision double
//            --threads 1 --walkers 8 --crowd 4 --delay 1 [--feedback F]
//            --seed 20170708
//            (--gens N [--trace] | --min-gens N --budget-s S | --setup-only)
//
// Setup is: load the spec, build_system, construct the QMCDriver and
// initialize_population. --setup-only stops there. Otherwise the
// untraced chain runs run_vmc()/run_dmc() and records a steady-clock
// timestamp in on_generation for every generation: either --gens
// generations, or (--budget-s) until at least --min-gens generations
// have run and the chain has used its time budget; the driver's
// stop_flag ends it at the next generation barrier.
//
// Traced (--trace): the same setup and a --gens untraced chain, then a second
// chain on a fresh population that replays QMCDriver::sweep_crowd and
// run_vmc/run_dmc through the same public calls in the same order, with
// a span around each call into a src/ module. Nothing inside src/ is
// instrumented; the engine's own TimerRegistry profile is reported
// beside the spans as program-reported. The replay's per-generation
// statistics are compared bit for bit with the untraced chain's: equal
// values show that the trace measured the program, not a look-alike.
//
// The benchmark harness (run.py) computes every metric from this
// output; this program only measures and reports raw records.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "concurrency/parallel_crowd_runner.h"
#include "concurrency/rng_streams.h"
#include "drivers/crowd.h"
#include "drivers/qmc_drivers.h"
#include "instrument/stopwatch.h"
#include "instrument/timer.h"
#include "io/job_spec.h"
#include "workloads/system_builder.h"
#include "workloads/system_spec.h"

using namespace qmcxx;

namespace
{

struct Args
{
  std::string spec;
  bool dmc = false;
  std::string precision = "double";
  int threads = 1;
  int walkers = 8;
  int crowd = 4;
  int delay = 1;
  double feedback = DriverConfig{}.feedback;
  std::uint64_t seed = 20170708;
  int gens = 0;
  int min_gens = 0;
  double budget_s = 0.0;
  bool trace = false;
  bool setup_only = false;
};

Args parse_args(int argc, char** argv)
{
  Args a;
  for (int i = 1; i < argc; ++i)
  {
    const std::string k = argv[i];
    if (k == "--trace" || k == "--setup-only")
    {
      (k == "--trace" ? a.trace : a.setup_only) = true;
      continue;
    }
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--spec")
      a.spec = v;
    else if (k == "--mode")
    {
      if (v != "vmc" && v != "dmc")
        throw std::invalid_argument("--mode must be vmc or dmc");
      a.dmc = v == "dmc";
    }
    else if (k == "--precision")
      a.precision = v;
    else if (k == "--threads")
      a.threads = std::stoi(v);
    else if (k == "--walkers")
      a.walkers = std::stoi(v);
    else if (k == "--crowd")
      a.crowd = std::stoi(v);
    else if (k == "--delay")
      a.delay = std::stoi(v);
    else if (k == "--feedback")
      a.feedback = std::stod(v);
    else if (k == "--seed")
      a.seed = std::stoull(v);
    else if (k == "--gens")
      a.gens = std::stoi(v);
    else if (k == "--min-gens")
      a.min_gens = std::stoi(v);
    else if (k == "--budget-s")
      a.budget_s = std::stod(v);
    else
      throw std::invalid_argument("unknown argument " + k);
  }
  if (a.spec.empty())
    throw std::invalid_argument("--spec is required");
  if (!a.setup_only && (a.gens < 1) == (a.budget_s <= 0.0 || a.min_gens < 1))
    throw std::invalid_argument("give --gens N >= 1, or --min-gens N >= 1 and --budget-s S > 0");
  if (a.trace && a.gens < 1)
    throw std::invalid_argument("--trace needs --gens");
  return a;
}

// ---- JSON output ------------------------------------------------------

void put_num(double v)
{
  if (std::isfinite(v))
    std::printf("%.17g", v);
  else
    std::printf("null"); // non-finite values are failures; run.py counts them
}

template<typename T, typename F>
void put_array(const char* key, const std::vector<T>& xs, F get)
{
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < xs.size(); ++i)
  {
    if (i)
      std::printf(", ");
    put_num(static_cast<double>(get(xs[i])));
  }
  std::printf("]");
}

/// Per-generation record of one chain.
struct GenRecord
{
  double t_end = 0.0; ///< seconds since the chain started, at the barrier
  double energy = 0.0;
  double weight = 0.0;
  int num_walkers = 0;
  double acceptance = 0.0;
  double trial_energy = 0.0;
  std::uint64_t drift_refreshes = 0;
};

void put_chain(const char* key, const std::vector<GenRecord>& g)
{
  std::printf("\"%s\": {", key);
  put_array("t_end", g, [](const GenRecord& r) { return r.t_end; });
  std::printf(", ");
  put_array("energy", g, [](const GenRecord& r) { return r.energy; });
  std::printf(", ");
  put_array("weight", g, [](const GenRecord& r) { return r.weight; });
  std::printf(", ");
  put_array("num_walkers", g, [](const GenRecord& r) { return r.num_walkers; });
  std::printf(", ");
  put_array("acceptance", g, [](const GenRecord& r) { return r.acceptance; });
  std::printf(", ");
  put_array("drift_refreshes", g,
            [](const GenRecord& r) { return static_cast<double>(r.drift_refreshes); });
  std::printf("}");
}

GenRecord to_record(double t_end, const GenerationStats& s)
{
  GenRecord r;
  r.t_end = t_end;
  r.energy = s.energy;
  r.weight = s.weight;
  r.num_walkers = s.num_walkers;
  r.acceptance = s.acceptance;
  r.trial_energy = s.trial_energy;
  r.drift_refreshes = s.drift_refreshes;
  return r;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Bitwise equality of the statistics two chains report per generation.
bool chains_equal(const std::vector<GenRecord>& a, const std::vector<GenRecord>& b)
{
  if (a.size() != b.size())
    return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].energy, b[i].energy) || !same_bits(a[i].weight, b[i].weight) ||
        a[i].num_walkers != b[i].num_walkers || !same_bits(a[i].acceptance, b[i].acceptance) ||
        !same_bits(a[i].trial_energy, b[i].trial_energy) ||
        a[i].drift_refreshes != b[i].drift_refreshes)
      return false;
  return true;
}

double peak_rss_mb()
{
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

// ---- setup ------------------------------------------------------------

template<typename TR>
struct Setup
{
  SystemSpec sysspec;
  QMCSystem<TR> sys;
  DriverConfig cfg;
  double parse_s = 0.0;
  double build_s = 0.0;
  double init_s = 0.0;
  double setup_s = 0.0;
};

DriverConfig make_config(const Args& a, const SystemSpec& sysspec)
{
  DriverConfig c;
  c.num_walkers = a.walkers;
  // A budgeted chain is ended by the stop flag, not by the step count.
  c.steps = a.gens > 0 ? a.gens : 1 << 30;
  c.seed = a.seed;
  c.num_threads = a.threads;
  c.crowd_size = a.crowd;
  c.feedback = a.feedback;
  // As run_engine: an explicit delay above 1 wins over the spec's default.
  c.delay_rank = a.delay > 1 ? a.delay : sysspec.delay_rank;
  c.precision.precision = io::precision_from_name(a.precision);
  return c;
}

/// Spec parse + build_system; the driver part of setup is timed by the
/// caller because the driver object must outlive this function.
template<typename TR>
void build(const Args& a, Setup<TR>& s, const Stopwatch& clock)
{
  const double t0 = clock.seconds();
  s.sysspec = io::parse_system_spec(io::read_text_file(a.spec), a.spec);
  s.cfg = make_config(a, s.sysspec);
  const double t1 = clock.seconds();
  BuildOptions opt;
  opt.seed = a.seed;
  opt.delay_rank = s.cfg.delay_rank;
  s.sys = build_system<TR>(s.sysspec, opt);
  const double t2 = clock.seconds();
  s.parse_s = t1 - t0;
  s.build_s = t2 - t1;
}

template<typename TR>
std::unique_ptr<QMCDriver<TR>> make_driver(Setup<TR>& s, const DriverConfig& cfg)
{
  auto d = std::make_unique<QMCDriver<TR>>(*s.sys.elec, *s.sys.twf, *s.sys.ham, cfg);
  d->initialize_population();
  return d;
}

// ---- traced replay ----------------------------------------------------

/// Spans around the public calls of each src/ module, accumulated per
/// crowd task (each task writes only its own slot, so no locking).
enum Span : int
{
  kStage = 0,     // drivers: Crowd::acquire + Crowd::release
  kMove,          // particle: mw_prepare_move + mw_make_move
  kUpdate,        // particle: mw_update at the measurement
  kGrad,          // wavefunction: mw_eval_grad
  kRatioGrad,     // wavefunction: mw_ratio_grad
  kAccept,        // wavefunction: mw_accept_reject
  kDriftGuard,    // wavefunction: monitor_inverse_drift
  kHamiltonian,   // hamiltonian: Hamiltonian::mw_evaluate
  kSpanCount
};

const char* span_name(int s)
{
  static const char* names[kSpanCount] = {"drivers.stage_s",         "particle.move_s",
                                          "particle.update_s",       "wavefunction.grad_s",
                                          "wavefunction.ratio_grad_s", "wavefunction.accept_s",
                                          "wavefunction.drift_guard_s", "hamiltonian.eval_s"};
  return names[s];
}

struct TaskTrace
{
  double span[kSpanCount] = {};
  double start = 0.0;
  double end = 0.0;
  int thread = 0;
  int accepted = 0;
  int proposed = 0;
  InverseDriftReport drift;
};

/// Totals of the traced chain.
struct TraceTotals
{
  double span[kSpanCount] = {};
  double crowd_busy_s = 0.0;
  double barrier_wait_s = 0.0;
  double imbalance_sum = 0.0;
  double reduce_s = 0.0;
  double branch_s = 0.0;
  double untimed_s = 0.0;
  double thread_time_s = 0.0;
  double walltime_s = 0.0;
  std::uint64_t accepted = 0;
  std::uint64_t proposed = 0;
  std::uint64_t drift_refreshes = 0;
  double move_pairs = 0.0;   ///< computed pair distances in mw_prepare_move + mw_make_move
  double update_pairs = 0.0; ///< computed pair distances in mw_update
  double walker_bytes_sum = 0.0;
  int population_max = 0;
  double population_sum = 0.0;
};

/// Umrigar drift limiting, as QMCDriver applies it to proposals.
TinyVector<double, 3> limited_drift(const TinyVector<double, 3>& grad, double tau)
{
  const double v2 = dot(grad, grad);
  if (v2 < 1e-300)
    return TinyVector<double, 3>{};
  const double tau_eff = (-1.0 + std::sqrt(1.0 + 2.0 * tau * v2)) / v2;
  return tau_eff * grad;
}

/// Weighted running mean/variance in the form the drivers reduce with
/// (zero weights skipped), so the replayed statistics match bitwise.
struct Welford
{
  double w_sum = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
  void add(double w, double x)
  {
    if (!(w > 0.0))
      return;
    w_sum += w;
    const double delta = x - mean;
    mean += delta * (w / w_sum);
    m2 += w * delta * (x - mean);
  }
  double variance() const { return w_sum > 0.0 ? m2 / w_sum : 0.0; }
};

template<typename TR>
class TracedChain
{
public:
  TracedChain(Setup<TR>& s, WalkerPopulation& pop, const DriverConfig& cfg)
      : cfg_(cfg), pop_(pop), runner_(cfg.num_threads),
        branch_rng_(make_stream(cfg.seed, StreamKind::Branch, 0))
  {
    for (int t = 0; t < runner_.num_threads(); ++t)
      crowds_.push_back(
          std::make_unique<Crowd<TR>>(*s.sys.elec, *s.sys.twf, s.sys.ham.get(), cfg.crowd_size));
    nel_ = s.sys.elec->size();
    nion_ = s.sys.ions->size();
  }

  /// Table bytes of every electron ParticleSet the production driver
  /// holds: the prototype plus one clone per crowd slot per thread.
  std::size_t table_bytes(ParticleSet<TR>& proto) const
  {
    std::size_t per_set = 0;
    for (int t = 0; t < proto.num_tables(); ++t)
      per_set += proto.table(t).storage_bytes();
    return per_set * (1 + static_cast<std::size_t>(runner_.num_threads()) * cfg_.crowd_size);
  }

  std::vector<GenRecord> run(bool dmc, TraceTotals& tot)
  {
    std::vector<GenRecord> recs;
    const Stopwatch clock;
    if (dmc)
    {
      FullPrecReal e0 = 0.0;
      for (const auto& w : pop_.walkers)
        e0 += w->local_energy;
      trial_energy_ = e0 / pop_.size();
    }
    for (int gen = 0; gen < cfg_.steps; ++gen)
    {
      const bool recompute =
          cfg_.recompute_period > 0 && gen > 0 && gen % cfg_.recompute_period == 0;
      const int nw = pop_.size();
      const int cs = cfg_.crowd_size;
      const int ncrowds = (nw + cs - 1) / cs;
      std::vector<TaskTrace> tasks(static_cast<std::size_t>(ncrowds));
      const double r0 = clock.seconds();
      runner_.run_generation(ncrowds, [&](int ic, int thread_index) {
        TaskTrace& tt = tasks[static_cast<std::size_t>(ic)];
        tt.thread = thread_index;
        tt.start = clock.seconds();
        const int lo = ic * cs;
        const int count = nw - lo < cs ? nw - lo : cs;
        sweep_crowd(*crowds_[static_cast<std::size_t>(thread_index)], lo, count, recompute, gen,
                    tt, clock);
        tt.end = clock.seconds();
      });
      const double r1 = clock.seconds();

      // Barrier: reduction exactly as run_vmc / run_dmc.
      std::int64_t accepted = 0, proposed = 0;
      InverseDriftReport drift;
      for (const TaskTrace& tt : tasks)
      {
        accepted += tt.accepted;
        proposed += tt.proposed;
        drift.rows_sampled += tt.drift.rows_sampled;
        drift.refreshes += tt.drift.refreshes;
      }
      Welford acc;
      if (dmc)
        for (const auto& wp : pop_.walkers)
        {
          Walker& w = *wp;
          const FullPrecReal e_mid = 0.5 * (w.local_energy + w.old_local_energy);
          FullPrecReal bw = std::exp(-cfg_.tau * (e_mid - trial_energy_));
          bw = std::min(bw, 2.5);
          w.weight *= bw;
          acc.add(w.weight, w.local_energy);
        }
      else
        for (const auto& w : pop_.walkers)
          acc.add(1.0, w->local_energy);
      GenerationStats stats;
      stats.num_walkers = nw;
      stats.weight = dmc ? acc.w_sum : nw;
      stats.energy = acc.mean;
      stats.variance = acc.variance();
      stats.acceptance = proposed > 0 ? static_cast<double>(accepted) / proposed : 0.0;
      stats.drift_refreshes = drift.refreshes;
      tot.walker_bytes_sum += static_cast<double>(pop_.byte_size());
      const double r2 = clock.seconds();
      if (dmc)
      {
        branch_walkers(pop_, cfg_.num_walkers, branch_rng_);
        trial_energy_ = stats.energy -
            cfg_.feedback / cfg_.tau *
                std::log(static_cast<double>(pop_.size()) / cfg_.num_walkers);
        stats.trial_energy = trial_energy_;
      }
      const double r3 = clock.seconds();
      recs.push_back(to_record(r3, stats));

      // ---- per-generation span bookkeeping ---------------------------
      const double run_wall = r1 - r0;
      std::vector<double> busy(static_cast<std::size_t>(runner_.num_threads()), 0.0);
      double max_task = 0.0, sum_task = 0.0;
      for (const TaskTrace& tt : tasks)
      {
        const double d = tt.end - tt.start;
        busy[static_cast<std::size_t>(tt.thread)] += d;
        max_task = std::max(max_task, d);
        sum_task += d;
        double covered = 0.0;
        for (int s = 0; s < kSpanCount; ++s)
        {
          tot.span[s] += tt.span[s];
          covered += tt.span[s];
        }
        tot.untimed_s += d - covered;
      }
      for (double b : busy)
        tot.barrier_wait_s += run_wall - b;
      tot.crowd_busy_s += sum_task;
      tot.imbalance_sum += sum_task > 0.0 ? max_task / (sum_task / ncrowds) : 1.0;
      tot.reduce_s += r2 - r1;
      tot.branch_s += r3 - r2;
      // Every pool thread is held for the runner's wall time; the barrier
      // steps after it run on the calling thread alone.
      tot.thread_time_s += run_wall * runner_.num_threads() + (r3 - r1);
      tot.accepted += static_cast<std::uint64_t>(accepted);
      tot.proposed += static_cast<std::uint64_t>(proposed);
      tot.drift_refreshes += drift.refreshes;
      tot.population_max = std::max(tot.population_max, nw);
      tot.population_sum += nw;
      // Computed pair counts per walker and generation (compute-on-the-fly
      // tables): prepare_move refreshes ee row k (nel), make_move fills the
      // ee and ei temporary rows (nel + nion); the measurement update
      // recomputes every ee and ei row (nel * (nel + nion)).
      tot.move_pairs += static_cast<double>(nw) * nel_ * (2.0 * nel_ + nion_);
      tot.update_pairs += static_cast<double>(nw) * nel_ * (static_cast<double>(nel_) + nion_);
    }
    tot.walltime_s = clock.seconds();
    return recs;
  }

private:
  /// The statements of QMCDriver::sweep_crowd, in order, with a span
  /// around every call into particle/, wavefunction/ and hamiltonian/.
  void sweep_crowd(Crowd<TR>& crowd, int first, int n, bool recompute, int gen, TaskTrace& tt,
                   const Stopwatch& clock)
  {
    double t = clock.seconds();
    auto lap = [&](int span) {
      const double now = clock.seconds();
      tt.span[span] += now - t;
      t = now;
    };
    auto mark = [&] { t = clock.seconds(); };

    crowd.acquire(&pop_.walkers[static_cast<std::size_t>(first)],
                  &pop_.rngs[static_cast<std::size_t>(first)], n, recompute);
    lap(kStage);
    const FullPrecReal tau = cfg_.tau;
    const FullPrecReal sqrt_tau = std::sqrt(tau);
    for (int iw = 0; iw < n; ++iw)
      crowd.naccept[static_cast<std::size_t>(iw)] = 0;
    for (int k = 0; k < nel_; ++k)
    {
      mark();
      ParticleSet<TR>::mw_prepare_move(crowd.p_refs(), k);
      lap(kMove);
      if (cfg_.use_drift)
      {
        TrialWaveFunction<TR>::mw_eval_grad(crowd.twf_refs(), crowd.p_refs(), k,
                                            crowd.grads.data());
        lap(kGrad);
        for (int iw = 0; iw < n; ++iw)
          crowd.drift[iw] = limited_drift(crowd.grads[iw], tau);
      }
      else
      {
        for (int iw = 0; iw < n; ++iw)
          crowd.drift[iw] = TinyVector<double, 3>{};
      }
      for (int iw = 0; iw < n; ++iw)
      {
        RandomGenerator& rng = crowd.rng(iw);
        const FullPrecReal g0 = rng.gaussian(), g1 = rng.gaussian(), g2 = rng.gaussian();
        crowd.chi[iw] = TinyVector<double, 3>{sqrt_tau * g0, sqrt_tau * g1, sqrt_tau * g2};
        crowd.rnew[iw] = crowd.elec(iw).pos(k) + crowd.drift[iw] + crowd.chi[iw];
      }
      mark();
      ParticleSet<TR>::mw_make_move(crowd.p_refs(), k, crowd.rnew);
      lap(kMove);
      TrialWaveFunction<TR>::mw_ratio_grad(crowd.twf_refs(), crowd.p_refs(), k, crowd.ratios,
                                           crowd.grads, crowd.resources());
      lap(kRatioGrad);
      for (int iw = 0; iw < n; ++iw)
      {
        const FullPrecReal ratio = crowd.ratios[iw];
        ++tt.proposed;
        bool accept = false;
        if (std::isfinite(ratio) && ratio > 0.0)
        {
          FullPrecReal log_gf = 0.0;
          if (cfg_.use_drift)
          {
            const TinyVector<double, 3> drift_new = limited_drift(crowd.grads[iw], tau);
            const TinyVector<double, 3> back = crowd.elec(iw).pos(k) - crowd.rnew[iw] - drift_new;
            const TinyVector<double, 3> fwd = crowd.chi[iw];
            log_gf = -(dot(back, back) - dot(fwd, fwd)) / (2.0 * tau);
          }
          const FullPrecReal prob = ratio * ratio * std::exp(log_gf);
          accept = crowd.rng(iw).uniform() < prob;
        }
        crowd.accept[iw] = accept ? 1 : 0;
        if (accept)
        {
          ++tt.accepted;
          ++crowd.naccept[iw];
        }
      }
      mark();
      TrialWaveFunction<TR>::mw_accept_reject(crowd.twf_refs(), crowd.p_refs(), k, crowd.accept,
                                              crowd.resources());
      lap(kAccept);
    }
    mark();
    ParticleSet<TR>::mw_update(crowd.p_refs());
    lap(kUpdate);
    Hamiltonian<TR>::mw_evaluate(crowd.ham_refs(), crowd.twf_refs(), crowd.p_refs(),
                                 crowd.resources(), crowd.energies.data());
    lap(kHamiltonian);
    for (int iw = 0; iw < n; ++iw)
      crowd.twf(iw).monitor_inverse_drift(crowd.elec(iw), cfg_.precision, gen, tt.drift);
    lap(kDriftGuard);
    crowd.release();
    lap(kStage);
    for (int iw = 0; iw < n; ++iw)
    {
      Walker& w = crowd.walker(iw);
      w.old_local_energy = w.local_energy;
      w.local_energy = crowd.energies[iw];
      w.age = crowd.naccept[iw] > 0 ? 0 : w.age + 1;
    }
  }

  DriverConfig cfg_;
  WalkerPopulation& pop_;
  ParallelCrowdRunner runner_;
  RandomGenerator branch_rng_;
  std::vector<std::unique_ptr<Crowd<TR>>> crowds_;
  FullPrecReal trial_energy_ = 0.0;
  int nel_ = 0;
  int nion_ = 0;
};

// ---- the run ----------------------------------------------------------

/// Facts about the build and the host that the harness puts into the
/// provenance manifest of every result.
void put_host()
{
  std::printf("\"compiler\": \"%s\", ", __VERSION__);
  std::printf("\"build_isa\": \"%s\", ",
#if defined(__AVX512F__)
              "avx512f"
#elif defined(__AVX2__)
              "avx2"
#elif defined(__AVX__)
              "avx"
#else
              "sse2"
#endif
  );
  __builtin_cpu_init();
  std::printf("\"host_avx512f\": %s, \"host_avx2\": %s, ",
              __builtin_cpu_supports("avx512f") ? "true" : "false",
              __builtin_cpu_supports("avx2") ? "true" : "false");
  std::printf("\"l3_bytes\": %ld, ", sysconf(_SC_LEVEL3_CACHE_SIZE));
}

template<typename TR>
int run(const Args& a)
{
  const Stopwatch clock;
  Setup<TR> s;
  build(a, s, clock);

  std::vector<GenRecord> untraced;
  std::atomic<bool> stop{false};
  Stopwatch chain_clock;
  DriverConfig cfg = s.cfg;
  cfg.stop_flag = &stop;
  cfg.on_generation = [&](int, const GenerationStats& st) {
    const double t = chain_clock.seconds();
    untraced.push_back(to_record(t, st));
    if (a.budget_s > 0.0 && static_cast<int>(untraced.size()) >= a.min_gens && t >= a.budget_s)
      stop.store(true, std::memory_order_relaxed);
  };
  const double d0 = clock.seconds();
  auto driver = make_driver(s, cfg);
  const double d1 = clock.seconds();
  s.init_s = d1 - d0;
  s.setup_s = d1; // the clock started before the spec was read

  std::printf("{\"schema\": \"qmcxx-perfbench-chain-v1\", ");
  put_host();
  std::printf("\"precision_bytes\": %d, \"num_electrons\": %d, \"num_ions\": %d, ",
              static_cast<int>(sizeof(TR)), s.sys.elec->size(), s.sys.ions->size());
  std::printf("\"threads\": %d, \"spec_hash\": \"%016llx\", ",
              ParallelCrowdRunner::resolve_num_threads(a.threads),
              static_cast<unsigned long long>(spec_content_hash(s.sysspec)));
  std::printf("\"setup_s\": %.17g, \"parse_s\": %.17g, \"build_s\": %.17g, \"init_s\": %.17g, ",
              s.setup_s, s.parse_s, s.build_s, s.init_s);
  std::printf("\"spline_bytes\": %zu, \"walker_bytes\": %zu",
              s.sys.spos->table_bytes(), driver->population().byte_size());
  if (a.setup_only)
  {
    std::printf(", \"peak_rss_mb\": %.17g}\n", peak_rss_mb());
    return 0;
  }

  TimerRegistry::instance().reset();
  chain_clock.restart();
  if (a.dmc)
    (void)driver->run_dmc();
  else
    (void)driver->run_vmc();
  const double untraced_s = chain_clock.seconds();
  std::printf(", \"chain_s\": %.17g, ", untraced_s);
  put_chain("untraced", untraced);

  if (a.trace)
  {
    // Fresh population from the same prototypes and seed: the replay
    // starts where the untraced chain started.
    DriverConfig tcfg = s.cfg;
    auto init_driver = make_driver(s, tcfg);
    TracedChain<TR> chain(s, init_driver->population(), tcfg);
    TraceTotals tot;
    TimerRegistry::instance().reset();
    const std::vector<GenRecord> traced = chain.run(a.dmc, tot);
    const KernelTotals profile = TimerRegistry::instance().snapshot();
    const double ngen = static_cast<double>(traced.size());
    std::printf(", ");
    put_chain("traced", traced);
    std::printf(", \"trace_equal\": %s", chains_equal(untraced, traced) ? "true" : "false");
    std::printf(", \"trace\": {\"walltime_s\": %.17g, \"untraced_walltime_s\": %.17g",
                tot.walltime_s, untraced_s);
    for (int sp = 0; sp < kSpanCount; ++sp)
      std::printf(", \"%s\": %.17g", span_name(sp), tot.span[sp]);
    std::printf(", \"crowd_busy_s\": %.17g, \"barrier_wait_s\": %.17g, \"imbalance\": %.17g",
                tot.crowd_busy_s, tot.barrier_wait_s, tot.imbalance_sum / ngen);
    std::printf(", \"reduce_s\": %.17g, \"branch_s\": %.17g, \"untimed_s\": %.17g",
                tot.reduce_s, tot.branch_s, tot.untimed_s);
    std::printf(", \"thread_time_s\": %.17g", tot.thread_time_s);
    std::printf(", \"accepted\": %llu, \"proposed\": %llu, \"drift_refreshes\": %llu",
                static_cast<unsigned long long>(tot.accepted),
                static_cast<unsigned long long>(tot.proposed),
                static_cast<unsigned long long>(tot.drift_refreshes));
    std::printf(", \"move_pairs\": %.17g, \"update_pairs\": %.17g", tot.move_pairs,
                tot.update_pairs);
    std::printf(", \"walker_bytes_mean\": %.17g", tot.walker_bytes_sum / ngen);
    std::printf(", \"population_mean\": %.17g, \"population_max\": %d",
                tot.population_sum / ngen, tot.population_max);
    std::printf(", \"table_bytes\": %zu", chain.table_bytes(*s.sys.elec));
    std::printf(", \"kernels\": {");
    for (int k = 0; k < static_cast<int>(Kernel::kCount); ++k)
      std::printf("%s\"%s\": %.17g", k ? ", " : "", kernel_name(static_cast<Kernel>(k)),
                  profile.seconds[k]);
    std::printf("}}");
  }
  std::printf(", \"peak_rss_mb\": %.17g}\n", peak_rss_mb());
  return 0;
}

} // namespace

int main(int argc, char** argv)
{
  try
  {
    const Args a = parse_args(argc, argv);
    return io::precision_from_name(a.precision) == Precision::Double ? run<double>(a)
                                                                      : run<float>(a);
  }
  catch (const std::exception& e)
  {
    std::fprintf(stderr, "qmcbench: %s\n", e.what());
    return 2;
  }
}
