//===- support/Options.h - Minimal CLI option parsing --------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny `--key=value` / `--flag` command-line parser used by every bench
/// harness, tool and example so each binary can scale its run count,
/// thread count, workload size and Tfactor without a heavyweight
/// dependency. It is the one place a value is parsed and range-checked:
/// a value a binary cannot use exits 2 with a message naming its key.
///
//===----------------------------------------------------------------------===//

#ifndef GSTM_SUPPORT_OPTIONS_H
#define GSTM_SUPPORT_OPTIONS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gstm {

/// Parsed command-line options of the form `--key=value` or bare `--flag`.
///
/// A getter returns \p Default when its key is absent. A value that is
/// present but unusable prints `<tool>: --<key> ...` and exits 2, so a
/// typo never runs with a default the user did not ask for.
class Options {
public:
  /// Parses \p Argv. Positional (non `--`) arguments are collected in
  /// order. A bare `--flag` is stored with the value "1".
  static Options parse(int Argc, const char *const *Argv);

  /// Exits 2 on trailing text, an empty value or int64 overflow.
  int64_t getInt(const std::string &Key, int64_t Default) const;
  /// Exits 2 on text strtod does not consume completely.
  double getDouble(const std::string &Key, double Default) const;
  std::string getString(const std::string &Key,
                        const std::string &Default) const;
  /// Exits 2 on anything other than 1, 0, true or false.
  bool getBool(const std::string &Key, bool Default) const;

  /// As above, and also exits 2 on a given value outside [\p Min, \p Max],
  /// NaN included; \p Default is returned as is. With \p Max the type's
  /// maximum (or +inf) the message reads `must be at least <Min>`,
  /// otherwise `must be in [<Min>, <Max>]`.
  int64_t getInt(const std::string &Key, int64_t Default, int64_t Min,
                 int64_t Max) const;
  double getDouble(const std::string &Key, double Default, double Min,
                   double Max) const;

  /// The value of \p Key (or \p Default) mapped through \p FromName, a
  /// `bool xFromName(Name, Out)` lookup; exits 2 naming \p Want, the
  /// accepted names, when it does not know the name.
  template <class T>
  T getEnum(const std::string &Key, const std::string &Default,
            bool (*FromName)(const std::string &, T &),
            const char *Want) const {
    T Out{};
    const std::string Name = getString(Key, Default);
    if (!FromName(Name, Out))
      fail(Key, std::string("must be ") + Want + ", not '" + Name + "'");
    return Out;
  }

  bool has(const std::string &Key) const { return Values.count(Key) != 0; }

  /// Non-option arguments, in command-line order.
  const std::vector<std::string> &positionals() const { return Positional; }

  /// Every `--key` that was passed (for spec validation).
  std::vector<std::string> keys() const;

  /// Prints `<tool>: --<Key> <Why>` and exits 2; for checks the getters
  /// above cannot make.
  [[noreturn]] void fail(const std::string &Key,
                         const std::string &Why) const;

private:

  std::map<std::string, std::string> Values;
  std::vector<std::string> Positional;
  std::string Tool; ///< argv[0] without its directory, for messages
};

/// The binary's name for messages: \p Argv0 without its directory.
std::string toolName(const char *Argv0);

/// One declared option of a tool's CLI.
struct OptionSpec {
  std::string Key;   ///< name without the leading "--"
  std::string Value; ///< metavariable ("N", "FILE", ...); empty = flag
  std::string Help;  ///< one-line description
};

/// Declarative CLI for a tool: generates `--help` text and rejects
/// unknown options, so every binary shares one argument convention
/// (`--key=value` / `--flag`) instead of hand-rolled variants.
class OptionSet {
public:
  /// \p Positionals names the positional operands in the usage line
  /// (e.g. "[paths...]"); empty when the tool takes none.
  OptionSet(std::string Tool, std::string Banner,
            std::vector<OptionSpec> Specs, std::string Positionals = "");

  /// Usage text: banner, synopsis, and one line per declared option.
  std::string usage() const;

  /// True when every `--key` in \p Opts is declared; otherwise fills
  /// \p Error with the offending key.
  bool validate(const Options &Opts, std::string &Error) const;

  /// parse() + validate(); prints usage and exits 0 on `--help`, prints
  /// the error and usage to stderr and exits 2 on an unknown option.
  Options parseOrExit(int Argc, const char *const *Argv) const;

private:
  std::string Tool;
  std::string Banner;
  std::vector<OptionSpec> Specs;
  std::string Positionals;
};

} // namespace gstm

#endif // GSTM_SUPPORT_OPTIONS_H
